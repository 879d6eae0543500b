"""Battery sensitivity: each row seeds a known defect into one production
formula and asserts the checks it fails, with exit status 1, at the
smallest decade of its size that fails them (the battery's resolution).

* A split-step kick that drops the drive term of k(t) = U^2 + V cos 2t, so
  the PDE evolves in the static trap U^2 while the closed form follows the
  driven one.
* The a_n phase x (1 + delta) on the samples whose theta is above 90% of
  its final value: on fig3-collapse that is the last 150 of the refined
  trajectory's 235,726 samples, all in the last window of its stream, so a
  sweep that drops, repeats or misaligns a window passes it.
* The 00 entry of the RK4 step matrices x (1 + delta), in every window of
  the scan."""

import json
import math

import numpy as np
import pytest

from wavetrains import TrapParameters, cli, mathieu, trains, verify
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


def _failed_checks(capsys, argv):
    """Exit status and the names of the failed checks of ``verify ARGV``."""
    rc = main(["verify", *argv])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return rc, [c["name"] for c in checks if not c["passed"]]


COLLAPSE = ["--preset", "fig3-collapse"]


@pytest.fixture
def late_phase_defect(monkeypatch):
    """Sets the a_n phase defect: a function of delta."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["verify", *COLLAPSE]))
    _, ptraj = cli._solve_polar(cfg, cfg.time.t_final, times=(0.5 * math.pi,))
    late_from = 0.9 * float(ptraj.theta[-1])
    coefficients = trains.coefficients

    def seed(delta):
        def with_defect(spec, rho, theta, drho, dtheta):
            out = coefficients(spec, rho, theta, drho, dtheta)
            phase = (0.5 + spec.n) * theta - (spec.b0**2 / (4.0 * spec.c0)) * np.sin(2.0 * theta)
            late = np.asarray(theta) > late_from
            return out._replace(a_n=np.where(late, out.a_n * np.exp(-1j * delta * phase),
                                             out.a_n))

        monkeypatch.setattr(trains, "coefficients", with_defect)

    return seed


@pytest.mark.parametrize("delta, failed", [(1e-6, ["coeff-a-residual"]), (1e-7, [])])
def test_verify_fails_a_late_a_n_phase_defect(late_phase_defect, capsys, delta, failed):
    # coeff-a-residual reads 3.3e-4 at delta = 1e-6; 1e-7 passes
    late_phase_defect(delta)
    assert _failed_checks(capsys, COLLAPSE) == (1 if failed else 0, failed)


def test_verify_fails_an_rk4_step_matrix_defect(monkeypatch, capsys):
    # 1 + 1e-15 is the smallest decade that changes the entry (1 + 1e-16
    # rounds to 1): a per-step defect delta forces phi'' by about
    # delta phi / h^2, and mathieu-residual reads 2.8e-4 on the refined stream
    propagators = mathieu._rk4_propagators

    def with_defect(*args):
        m = propagators(*args)
        m[0] *= 1.0 + 1e-15
        return m

    monkeypatch.setattr(mathieu, "_rk4_propagators", with_defect)
    assert _failed_checks(capsys, COLLAPSE) == (1, ["mathieu-residual"])
