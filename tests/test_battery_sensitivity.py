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
  the scan.
* The b0^2/(4 c0) sin 2 theta term of the a_n phase x (1 + delta), where
  delta = -2 flips its sign: psi_n takes its x-independent phase from a_n,
  so the flip moves psi_n as well.
* The rho' term of the Riccati variable c = theta'/2 - i rho'/(2 rho)
  x (1 + delta).
* The coefficient sqrt(k/(k+1)) of h_{k-1} in the Hermite recurrence
  x (1 + delta), at every k."""

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


def _seed_coefficients(monkeypatch, edit):
    """``trains.coefficients`` with ``edit(spec, out, rho, theta, drho)`` applied
    to its result."""
    coefficients = trains.coefficients

    def with_defect(spec, rho, theta, drho, dtheta):
        return edit(spec, coefficients(spec, rho, theta, drho, dtheta), rho, theta, drho)

    monkeypatch.setattr(trains, "coefficients", with_defect)


@pytest.fixture
def late_phase_defect(monkeypatch):
    """Sets the a_n phase defect: a function of delta."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["verify", *COLLAPSE]))
    _, ptraj = cli._solve_polar(cfg, cfg.time.t_final, times=(0.5 * math.pi,))
    late_from = 0.9 * float(ptraj.theta[-1])

    def seed(delta):
        def edit(spec, out, rho, theta, drho):
            phase = (0.5 + spec.n) * theta - (spec.b0**2 / (4.0 * spec.c0)) * np.sin(2.0 * theta)
            late = np.asarray(theta) > late_from
            return out._replace(a_n=np.where(late, out.a_n * np.exp(-1j * delta * phase),
                                             out.a_n))

        _seed_coefficients(monkeypatch, edit)

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


def _sin_2theta_defect(delta):
    """The edit that scales the a_n phase's sin 2 theta term by 1 + delta."""
    def edit(spec, out, rho, theta, drho):
        s = spec.b0**2 / (4.0 * spec.c0)
        return out._replace(a_n=out.a_n * np.exp(1j * delta * s * np.sin(2.0 * theta)))

    return edit


@pytest.mark.parametrize("delta, failed", [(-2.0, ["coeff-a-residual"]),
                                           (-1.0, ["coeff-a-residual"]), (-0.1, [])])
def test_verify_fails_a_sin_2theta_defect_of_the_a_n_phase(monkeypatch, capsys, delta, failed):
    # b0^2/(4 c0) is about 5e-4 on fig3-collapse: the flipped sign reads
    # 1.0e-3, the dropped term (delta = -1) 5.0e-4, and delta = -0.1 passes
    _seed_coefficients(monkeypatch, _sin_2theta_defect(delta))
    assert _failed_checks(capsys, COLLAPSE) == (1 if failed else 0, failed)


def test_verify_fails_a_flipped_sin_2theta_sign_of_the_state_phase(monkeypatch, capsys):
    # the term is a time-dependent global phase of psi_n, which the PDE
    # check (|psi|^2 and |overlap|) cannot see: psi_n must take it from the
    # a_n that coeff-a-residual checks, so the flip that fails that check
    # moves the snapshot's psi_n by 2 (b0^2/(4 c0)) |sin 2 theta| of it:
    # 1.9e-3 at 2pi, where sin 2 theta reads 0.96 (at 0 and 1pi it is near 0)
    cfg = cli.resolve_config(cli.build_parser().parse_args(["snapshot", *COLLAPSE]))
    times = cfg.time.times
    _, ptraj = cli._solve_polar(cfg, max(times), times)
    spec = cli._effective_spec(cfg, ptraj.c0)
    x = cli._space_grid(cfg, ptraj, spec).points()
    t = times[2]

    def snapshot_psi():
        return trains.psi(trains.train_frame(ptraj, spec, t), x)

    before = snapshot_psi()
    _seed_coefficients(monkeypatch, _sin_2theta_defect(-2.0))
    assert np.max(np.abs(snapshot_psi() - before)) > 1e-3 * np.max(np.abs(before))
    assert _failed_checks(capsys, COLLAPSE) == (1, ["coeff-a-residual"])


@pytest.mark.parametrize("delta, failed", [(1e-4, ["coeff-c-residual"]), (1e-5, [])])
def test_verify_fails_a_rho_dot_defect_of_c(monkeypatch, capsys, delta, failed):
    # coeff-c-residual reads 1.05e-4 at delta = 1e-4; from 1e-3 the b and e
    # residuals, which take c, fail too
    _seed_coefficients(monkeypatch, lambda spec, out, rho, theta, drho:
                       out._replace(c=out.c - 0.5j * delta * drho / rho))
    assert _failed_checks(capsys, COLLAPSE) == (1 if failed else 0, failed)


@pytest.mark.parametrize("delta, failed", [(1e-6, ["orthogonality", "energy-affinity"]),
                                           (1e-7, [])])
def test_verify_fails_a_hermite_recurrence_defect(monkeypatch, capsys, delta, failed):
    # orthogonality reads 3.7e-6 and energy-affinity 6.0e-6 at delta = 1e-6;
    # the defect leaves h_n's norm off 1 only at second order, so
    # normalization fails from delta = 1e-3 (3.0e-6)
    def rows(nmax, xi, row):
        h_prev = row(0)
        h_prev[...] = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
        if nmax == 0:
            return h_prev
        h = row(1)
        h[...] = math.sqrt(2.0) * xi * h_prev
        for k in range(1, nmax):
            h_next = row(k + 1)  # may be h_prev's buffer: the right side is built first
            h_next[...] = (math.sqrt(2.0 / (k + 1)) * xi * h
                           - (1.0 + delta) * math.sqrt(k / (k + 1.0)) * h_prev)
            h, h_prev = h_next, h
        return h

    monkeypatch.setattr(trains, "_hermite_rows", rows)
    assert _failed_checks(capsys, COLLAPSE) == (1 if failed else 0, failed)
