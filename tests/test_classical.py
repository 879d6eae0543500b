"""Classical core: iteration scheme vs direct integration, polar form,
first integral, and the equation-of-motion residual checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wavetrains import (
    BranchJump,
    ClassicalInit,
    NonFiniteValue,
    NonZeroStart,
    OriginCrossing,
    StabilityRegionWarning,
    TooManySamples,
    Trajectory,
    TrapParameters,
    TrainSpec,
    UniformGrid,
    coefficients,
    first_integral,
    picard_iterate,
    polar_decompose,
    solve_classical,
    unperturbed_solution,
)
from wavetrains import mathieu, numerics
from wavetrains.errors import ConfigError
from wavetrains.mathieu import mathieu_residual, polar_ode_residuals
from wavetrains.numerics import central_diff, commensurate_count, time_lattice
from wavetrains.trains import verify_eq4

from conftest import (
    COLLAPSE_INIT,
    COLLAPSE_PARAMS,
    FOUR_PI,
    SOLITON_INIT,
    SOLITON_PARAMS,
    STATIC_INIT,
    STATIC_PARAMS,
    eq14_reference,
)
from rk4_reference import loop_classical

HALF_PI = 0.5 * math.pi


# ------------------------------------------------- unperturbed solution

def test_unperturbed_cosine_values():
    params = TrapParameters(u2=0.25, v=0.05)
    init = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-HALF_PI)

    phi1, phi2, dphi1, dphi2 = unperturbed_solution(init, params, 0.0)
    assert phi1 == 1.0
    assert dphi1 == 0.0
    assert abs(phi2) < 1e-15          # cos(-pi/2)
    assert dphi2 == 0.5               # -B U sin(-pi/2)

    phi1_pi = unperturbed_solution(init, params, math.pi)[0]
    assert abs(phi1_pi) < 1e-15       # cos(pi/2)


# --------------------------------------------------- Picard iteration

def test_picard_reduces_to_unperturbed_when_undriven():
    params = TrapParameters(u2=0.25, v=0.0)
    init = ClassicalInit(a=1.3, b=0.7, alpha=0.2, beta=-1.0)
    grid = UniformGrid(0.0, FOUR_PI / 512, 513)
    traj = picard_iterate(params, init, 3, grid)
    t = grid.points()
    u = params.u
    assert np.array_equal(traj.phi1, 1.3 * np.cos(u * t + 0.2))
    assert np.array_equal(traj.phi2, 0.7 * np.cos(u * t - 1.0))
    assert np.array_equal(traj.dphi1, -1.3 * u * np.sin(u * t + 0.2))


def test_picard_single_pass_matches_closed_form():
    grid = UniformGrid(0.0, FOUR_PI / 8192, 8193)
    traj = picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 1, grid)
    ref1, ref2 = eq14_reference(grid.points())
    assert float(np.max(np.abs(traj.phi1 - ref1))) < 1e-10
    assert float(np.max(np.abs(traj.phi2 - ref2))) < 1e-10


def test_picard_converges_to_rk4():
    n = 16384
    grid = UniformGrid(0.0, FOUR_PI / n, n + 1)
    pic = picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 4, grid)
    rk = solve_classical(SOLITON_PARAMS, SOLITON_INIT, grid)
    assert float(np.max(np.abs(pic.phi1 - rk.phi1))) < 1e-6
    assert float(np.max(np.abs(pic.phi2 - rk.phi2))) < 1e-6


def test_picard_residual_decreases_until_quadrature_floor():
    n = 4096
    grid = UniformGrid(0.0, FOUR_PI / n, n + 1)
    res = [mathieu_residual(picard_iterate(SOLITON_PARAMS, SOLITON_INIT, k, grid))
           for k in range(1, 6)]
    assert all(res[i + 1] < res[i] for i in range(len(res) - 1))
    assert res[2] < 1e-2 * res[0]     # genuine contraction before the floor


def test_picard_input_validation():
    with pytest.raises(NonZeroStart):
        picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 1,
                       UniformGrid(1.0, 0.1, 32))
    with pytest.raises(ValueError):
        picard_iterate(SOLITON_PARAMS, SOLITON_INIT, -1,
                       UniformGrid(0.0, 0.1, 32))


def test_picard_refuses_iterations_past_the_budget(monkeypatch):
    with pytest.raises(TooManySamples):
        mathieu.require_picard_budget(2**40, 8193)
    # the boundary on a lowered budget, so a missing check cannot hang the test
    grid = UniformGrid(0.0, 0.1, 33)
    monkeypatch.setattr(mathieu, "MAX_ITERATION_SAMPLES", 4 * 33)
    picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 4, grid)
    with pytest.raises(TooManySamples):
        picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 5, grid)


# ------------------------------------------------ closed-form reference

def test_reference_iterate_values():
    phi1, phi2 = eq14_reference(0.0)
    assert phi1 == 1.0
    assert abs(phi2) < 1e-15

    phi1, phi2 = eq14_reference(math.pi)
    assert abs(phi1) < 1e-15

    # hand evaluation at t = pi/2: the three phi1 corrections collapse to
    # -(1/3) cos(pi/4) and the phi2 corrections cancel exactly
    phi1, phi2 = eq14_reference(HALF_PI)
    assert abs(phi1 - 29.0 * math.sqrt(2.0) / 60.0) < 1e-15
    assert abs(phi2 - math.sqrt(2.0) / 2.0) < 1e-15


# ----------------------------------------------------- direct integration

def test_solve_classical_static_is_cosine():
    params = TrapParameters(u2=1.0, v=0.0)
    init = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-HALF_PI)
    traj = solve_classical(params, init, time_lattice(2.0 * math.pi, 6284))  # steps <= 1e-3
    assert float(np.max(np.abs(traj.phi1 - np.cos(traj.t)))) < 1e-10


def test_solve_classical_soliton_first_integral(soliton_traj):
    assert abs(soliton_traj.c0 - 0.5) < 1e-12
    assert soliton_traj.max_c0_drift < 1e-8


def test_solve_classical_collapse_envelope_range(collapse_polar):
    # the squeezed orbit swings between about 0.02 and about 10
    rho_max = float(np.max(collapse_polar.rho))
    rho_min = float(np.min(collapse_polar.rho))
    assert 9.5 < rho_max < 10.9
    assert abs(rho_min - 0.02) < 0.002


def test_solve_classical_rejects_bad_span():
    with pytest.raises(NonZeroStart):
        solve_classical(SOLITON_PARAMS, SOLITON_INIT, UniformGrid(1.0, 1e-2, 101))
    with pytest.raises(ValueError):
        solve_classical(SOLITON_PARAMS, SOLITON_INIT, UniformGrid(0.0, 0.0, 101))


def test_solve_classical_refuses_oversized_runs(monkeypatch):
    # the cap is checked from span / step before any array exists
    monkeypatch.setattr(numerics, "MAX_SAMPLES", 1000)

    def lattice(t_final, step):
        return time_lattice(t_final, commensurate_count(t_final, (), step))

    assert solve_classical(SOLITON_PARAMS, SOLITON_INIT,
                           lattice(1.0, 1.0 / 999)).grid.count == 1000
    with pytest.raises(TooManySamples) as info:
        solve_classical(SOLITON_PARAMS, SOLITON_INIT, lattice(1.0, 1.0 / 1000))
    assert isinstance(info.value, ConfigError)
    with pytest.raises(TooManySamples):
        solve_classical(SOLITON_PARAMS, SOLITON_INIT, lattice(1e3, 5e-324))


# the step-matrix product against the one-step-per-iteration loop: N eps
# relative to the amplitude, N = 2^14 being the equivalence test's count
LOOP_TOL = 2**14 * np.finfo(float).eps
DATA = pytest.mark.parametrize(
    "params, init",
    [(SOLITON_PARAMS, SOLITON_INIT), (COLLAPSE_PARAMS, COLLAPSE_INIT)],
    ids=["soliton", "collapse"])


def _loop_gap(params, init, t_final, n_steps):
    """Largest |solve_classical - loop| over phi1, phi2 and their
    derivatives, relative to max(1, amplitude)."""
    traj = solve_classical(params, init, time_lattice(t_final, n_steps))
    assert traj.grid.count == n_steps + 1
    ref = loop_classical(params, init, traj.grid)
    amp = max(float(np.max(np.abs(r))) for r in ref)
    got = (traj.phi1, traj.phi2, traj.dphi1, traj.dphi2)
    gap = max(float(np.max(np.abs(x - r))) for x, r in zip(got, ref))
    return gap / max(1.0, amp)


@DATA
def test_solve_classical_matches_loop_reference(params, init):
    assert _loop_gap(params, init, FOUR_PI, 2**14) <= LOOP_TOL


@DATA
@pytest.mark.parametrize("n_steps", [1, 2, 1009],
                         ids=["one-step", "two-steps-h-2pi", "prime-count"])
def test_solve_classical_edge_counts_match_loop_reference(params, init, n_steps):
    # two steps of 2pi put h sqrt(k) = pi beyond RK4's stability limit,
    # so padding the last block with real steps would overflow; 1009
    # steps leave a partial block
    assert _loop_gap(params, init, FOUR_PI, n_steps) <= LOOP_TOL


def test_solve_classical_flags_nonfinite_states():
    # h sqrt(k) = 5 lies beyond RK4's limit 2 sqrt(2): every step scales
    # the state by about 21, so it overflows within the 800 steps
    params = TrapParameters(u2=100.0, v=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            solve_classical(params, SOLITON_INIT, time_lattice(400.0, 800))


def test_solve_classical_peak_memory_per_step():
    # the trajectory keeps 32 B/step and the step matrices take 32 more;
    # temporaries for every step on top of those would not fit
    n_steps = 2**17
    tracemalloc.start()
    try:
        solve_classical(COLLAPSE_PARAMS, COLLAPSE_INIT, time_lattice(FOUR_PI, n_steps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * n_steps


# 64-step windows: one and two windows on either side of the window size, a
# last window of 1 to 5 steps, and many windows
WINDOW_COUNTS = [1, 63, 64, 65, 66, 67, 68, 69, 128, 129, 130, 64 * 7 + 3]


@DATA
@pytest.mark.parametrize("n_steps", WINDOW_COUNTS)
def test_solve_classical_is_its_windows_laid_end_to_end(monkeypatch, params, init, n_steps):
    # the windows verify streams are the whole solve bit for bit, and the
    # state carried across them keeps the solve on the loop reference
    monkeypatch.setattr(mathieu, "WINDOW", 64)
    traj = solve_classical(params, init, time_lattice(HALF_PI, n_steps))
    windows = list(mathieu.rk4_windows(params, init, traj.grid))
    assert [first for first, _ in windows] == [0] + list(range(65, n_steps + 1, 64))
    whole = np.concatenate([np.array(w) for _, w in windows], axis=1)
    assert np.array_equal(whole, np.array([traj.phi1, traj.phi2, traj.dphi1, traj.dphi2]))
    assert _loop_gap(params, init, HALF_PI, n_steps) <= LOOP_TOL


def test_nonfinite_state_is_flagged_at_its_global_time(monkeypatch):
    # as in test_solve_classical_flags_nonfinite_states, in 64-step windows:
    # the message names the time on the whole grid, not in the window
    monkeypatch.setattr(mathieu, "WINDOW", 64)
    params = TrapParameters(u2=100.0, v=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"t = (\d+\.\d+)") as info:
            solve_classical(params, SOLITON_INIT, time_lattice(400.0, 800))
    t = float(info.value.args[0].split("t = ")[1])
    assert t > 64 * 0.5 and (t / 0.5).is_integer()


def test_streamed_theta_equals_unwrap_of_the_whole():
    # the collapse orbit turns through many branches; theta continued over
    # 4000-sample windows is np.unwrap of the whole array bit for bit
    traj = solve_classical(COLLAPSE_PARAMS, COLLAPSE_INIT, time_lattice(8 * FOUR_PI, 19999))
    raw = np.arctan2(traj.phi2, traj.phi1)
    assert np.count_nonzero(np.abs(np.diff(raw)) > np.pi) >= 3
    parts, carry = [], None
    for a in range(0, traj.grid.count, 4000):
        rows = slice(a, a + 4000)
        *_, theta, _, _, carry = mathieu._polar(traj.grid, a, traj.phi1[rows], traj.phi2[rows],
                                                traj.dphi1[rows], traj.dphi2[rows], carry)
        parts.append(theta)
    assert len(parts) >= 3
    assert np.array_equal(np.concatenate(parts), np.unwrap(raw))
    assert np.array_equal(polar_decompose(traj).theta, np.unwrap(raw))


# ---------------------------------------------------- polar decomposition

def _circle_trajectory(omega: float, step: float, count: int) -> Trajectory:
    params = TrapParameters(u2=omega * omega, v=0.0)
    init = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-HALF_PI)
    grid = UniformGrid(0.0, step, count)
    t = grid.points()
    return Trajectory(params=params, init=init, grid=grid,
                      phi1=np.cos(omega * t), phi2=np.sin(omega * t),
                      dphi1=-omega * np.sin(omega * t),
                      dphi2=omega * np.cos(omega * t))


def test_polar_unit_circle():
    traj = _circle_trajectory(0.5, 0.05, 400)
    p = polar_decompose(traj)
    t = p.t
    assert np.allclose(p.rho, 1.0, atol=1e-12)
    assert np.allclose(p.theta, 0.5 * t, atol=1e-9)
    assert np.allclose(p.drho, 0.0, atol=1e-12)
    assert np.allclose(p.dtheta, 0.5, atol=1e-12)


def test_polar_collapse_initial_point(collapse_polar):
    assert abs(collapse_polar.rho[0] - 0.02) < 1e-15
    assert abs(collapse_polar.theta[0]) < 1e-12


def test_polar_first_integral_identity(soliton_polar):
    rel = np.abs(soliton_polar.rho ** 2 * soliton_polar.dtheta
                 - soliton_polar.c0) / soliton_polar.c0
    assert float(np.max(rel)) < 1e-8
    assert np.all(np.diff(soliton_polar.theta) > 0)  # c0 > 0: theta climbs


def test_polar_origin_crossing():
    grid = UniformGrid(0.0, 1.0, 3)
    traj = Trajectory(params=TrapParameters(1.0, 0.0),
                      init=ClassicalInit(1.0, 0.0, 0.0, 0.0), grid=grid,
                      phi1=np.array([1.0, 0.0, -1.0]),
                      phi2=np.zeros(3),
                      dphi1=np.array([0.0, -1.0, 0.0]),
                      dphi2=np.zeros(3))
    with pytest.raises(OriginCrossing):
        polar_decompose(traj)


def test_polar_branch_jump_on_coarse_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityRegionWarning)
        traj = _circle_trajectory(omega=10.0, step=0.5, count=8)
    with pytest.raises(BranchJump):
        polar_decompose(traj)


# -------------------------------------------------------- first integral

def test_first_integral_trig_oracle(rng):
    # undriven: c0 = A B U sin(alpha - beta) at every time
    params = TrapParameters(u2=0.25, v=0.0)
    init = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-HALF_PI)
    for t in rng.uniform(0.0, FOUR_PI, size=10):
        state = unperturbed_solution(init, params, float(t))
        assert abs(first_integral(*state) - 0.5) < 1e-12

    degenerate = ClassicalInit(a=1.0, b=2.0, alpha=0.7, beta=0.7)
    state = unperturbed_solution(degenerate, params, 1.3)
    assert abs(first_integral(*state)) < 1e-15

    squeezed = ClassicalInit(a=0.02, b=10.0, alpha=0.0, beta=-HALF_PI)
    state = unperturbed_solution(squeezed, params, 2.1)
    assert abs(first_integral(*state) - 0.1) < 1e-12


# ------------------------------------------------------- Riccati variable

def test_riccati_on_circle():
    spec = TrainSpec(n=0, b0=0.0, c0=1.0)
    c = coefficients(spec, rho=1.0, theta=0.0, drho=0.0, dtheta=1.0).c
    assert c == 0.5 + 0.0j


def test_riccati_from_trajectory(soliton_polar, soliton_spec):
    p = soliton_polar
    c = coefficients(soliton_spec, p.rho[0], p.theta[0], p.drho[0], p.dtheta[0]).c
    assert c.real == 0.5 * p.dtheta[0]
    assert c.imag == -0.5 * p.drho[0] / p.rho[0]


def test_riccati_equation_residual_converges():
    def residual(n):
        traj = solve_classical(SOLITON_PARAMS, SOLITON_INIT, time_lattice(FOUR_PI, n))
        p = polar_decompose(traj)
        spec = TrainSpec(n=0, b0=0.0, c0=p.c0)
        c = coefficients(spec, p.rho, p.theta, p.drho, p.dtheta).c
        dc = central_diff(c, p.grid.step, order=1)
        return float(np.max(np.abs(1j * dc - 2.0 * c * c
                                   + 0.5 * p.params.k(p.t))))

    assert residual(2048) / residual(4096) > 3.5


# --------------------------------------------- equation-of-motion residuals

def test_polar_ode_residuals_fourth_order():
    # 512 -> 1024 steps: theta falls about 32x, rho about 16x; finer steps
    # reach the rounding floor of the second difference
    def residuals(n):
        traj = solve_classical(SOLITON_PARAMS, SOLITON_INIT, time_lattice(FOUR_PI, n))
        return polar_ode_residuals(polar_decompose(traj))

    coarse, fine = residuals(512), residuals(1024)
    assert coarse["theta"] / fine["theta"] > 12.0
    assert coarse["rho"] / fine["rho"] > 12.0


@pytest.mark.parametrize("params, init", [(COLLAPSE_PARAMS, COLLAPSE_INIT),
                                           (STATIC_PARAMS, STATIC_INIT)],
                         ids=["collapse", "static"])
def test_relative_residuals_match_whole_array_reference(params, init):
    # each relative value must equal the reduction written out on whole
    # arrays, bit for bit, and be a plain Python float, never a numpy scalar
    traj = solve_classical(params, init, time_lattice(HALF_PI, 4002))
    ptraj = polar_decompose(traj)
    spec = TrainSpec(n=4, b0=0.02, c0=ptraj.c0)
    k = params.k(traj.t)
    tiny = np.finfo(float).tiny

    def d(y, order):
        return central_diff(y, traj.grid.step, order=order)

    def rel(resid, *terms):
        return np.max(np.abs(resid)) / max(max(np.max(np.abs(x)) for x in terms), tiny)

    # classical: each component against its own scale, then the larger
    classical = mathieu_residual(traj, relative=True)
    assert type(classical) is float
    assert classical == max(
        rel(d(phi, 2) + k * phi, k * phi) for phi in (traj.phi1, traj.phi2))
    # polar: theta'^2 is a term of the theta scale, flooring it when the
    # other two cancel (the static limit)
    rho, dtheta = ptraj.rho, ptraj.dtheta
    coupling = 2.0 * dtheta * ptraj.drho / rho
    polar = polar_ode_residuals(ptraj, relative=True)
    assert all(type(v) is float for v in polar.values())
    assert polar == {
        "theta": rel(d(ptraj.theta, 2) + coupling, d(ptraj.theta, 2), coupling, dtheta**2),
        "rho": rel(d(rho, 2) - dtheta**2 * rho + k * rho, dtheta**2 * rho, k * rho)}
    b, c, e, f, a = coefficients(spec, rho, ptraj.theta, ptraj.drho, dtheta)
    dc, db, de, df, da = (d(x, 1) for x in (c, b, e, f, a))
    eq4 = verify_eq4(ptraj, spec, relative=True)
    assert all(type(v) is float for v in eq4.values())
    assert eq4 == {
        "c": rel(1j * dc - 2.0 * c * c + 0.5 * k, 2.0 * c * c, 0.5 * k),
        "b": rel(1j * db - 2.0 * b * c, 2.0 * b * c),
        "e": rel(1j * de - 2.0 * c * e + e**3, 2.0 * c * e, e**3),
        "f": rel(1j * df - b * e + e * e * f, b * e, e * e * f),
        "a": rel(1j * da / a - (1j * f * df - 0.5 * b * b + c + spec.n * e * e),
                 f * df, 0.5 * b * b, c, spec.n * e * e)}


def test_polar_ode_residuals_relative_static(static_polar):
    res = polar_ode_residuals(static_polar, relative=True)
    assert res["theta"] < 1e-4
    assert res["rho"] < 1e-4


# ------------------------------------------------------ parameter records

def test_stability_heuristic_warning():
    with pytest.warns(StabilityRegionWarning):
        TrapParameters(u2=1.2, v=0.5)
    with pytest.warns(StabilityRegionWarning):
        TrapParameters(u2=0.25, v=0.3)  # v > u2


def test_undriven_trap_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TrapParameters(u2=1.0, v=0.0)
        TrapParameters(u2=4.0, v=0.0)


def test_trap_requires_positive_u2():
    with pytest.raises(ValueError):
        TrapParameters(u2=0.0, v=0.0)


def test_trap_k_profile():
    params = TrapParameters(u2=0.25, v=0.05)
    assert params.u == 0.5
    assert params.k(0.0) == 0.30
    assert abs(params.k(HALF_PI) - 0.20) < 1e-15
