"""Oracle sensitivity: the split-step checks fail on a propagator with a
known defect.  The defect here is a kick that drops the drive term of
k(t) = U^2 + V cos 2t, so the PDE evolves in the static trap U^2 while the
closed form follows the driven one."""

import json

import pytest

from wavetrains import TrapParameters, verify
from wavetrains.cli import main


@pytest.fixture
def undriven_kick(monkeypatch):
    evolve = verify.split_step_evolve

    def without_drive(psi0, params, *args, **kwargs):
        return evolve(psi0, TrapParameters(params.u2, 0.0), *args, **kwargs)

    monkeypatch.setattr(verify, "split_step_evolve", without_drive)


def test_verify_fails_the_pde_check_without_the_drive(undriven_kick, capsys):
    # fig2-soliton: the density distance reads about 0.3 at 0.5pi, far past 1e-3
    assert main(["verify", "--preset", "fig2-soliton"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    failed = [name for name, c in checks.items() if not c["passed"]]
    assert failed == ["pde-density-distance"]
    assert checks["pde-density-distance"]["value"] > 0.1


def test_oracle_compare_fails_without_the_drive(undriven_kick, capsys):
    # fig3-collapse: about 2e-3 at 0.25pi against the default tolerance 1e-3
    argv = ["oracle-compare", "--preset", "fig3-collapse", "--times", "0.25pi,0.5pi"]
    assert main(argv) == 1
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")][1:]
    assert float(rows[0][1]) > 1e-3
