"""Acceptance battery: eleven quantitative gates, one test per gate.

Each test measures first, then emits a single ``[PASS]``/``[FAIL]`` line
carrying the measured numbers (echoed again in the terminal summary), and
only then asserts.  A failing gate therefore still reports its
measurement.
"""

import math
import time
import warnings

import numpy as np

from wavetrains import (
    NormDeficitWarning,
    PropagatorConfig,
    TrainSpec,
    UniformGrid,
    build_space_grid,
    auto_space_grid,
    center_orbit,
    l2_density_distance,
    overlap,
    picard_iterate,
    polar_decompose,
    propagation_grid,
    psi_on_grid,
    renormalized,
    solve_classical,
    split_step_evolve,
    train_frame,
)
from wavetrains.cli import main
from wavetrains.numerics import time_lattice
from wavetrains.trains import amplitude, mean_energy, verify_eq4

import conftest
from conftest import (
    COLLAPSE_INIT,
    COLLAPSE_PARAMS,
    FOUR_PI,
    SOLITON_INIT,
    SOLITON_PARAMS,
    STATIC_INIT,
    STATIC_PARAMS,
    TWO_PI,
    eq14_reference,
)
from references import every, tdse_residual


def _record(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _repeat_lag(t, values, lag_min, lag_max):
    """Lag in [lag_min, lag_max] minimizing the sup mismatch between the
    series and its shifted self: the delay after which the trajectory
    repeats.  Coarse scan, then unit-step refinement."""
    stride = max(1, (len(values) - 1) // 8192)
    v = np.asarray(values[::stride], dtype=float)
    tt = np.asarray(t[::stride], dtype=float)
    h = tt[1] - tt[0]
    i_lo = max(1, int(lag_min / h))
    i_hi = min(int(lag_max / h), len(v) - max(64, len(v) // 8))

    def mismatch(i):
        return float(np.max(np.abs(v[i:] - v[: len(v) - i])))

    best = min(range(i_lo, i_hi + 1, 8), key=mismatch)
    best = min(range(max(i_lo, best - 8), min(i_hi, best + 8) + 1),
               key=mismatch)
    return best * h


def _sample_times(ptraj, count):
    idx = np.unique(np.round(np.linspace(0, ptraj.grid.count - 1,
                                         count)).astype(int))
    return ptraj.grid.start + idx * ptraj.grid.step


# ---------------------------------------------------------------------------

def test_criterion_01_first_iterate_reproduction():
    start = time.perf_counter()
    grid = UniformGrid(0.0, FOUR_PI / 8192, 8193)
    iterate = picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 1, grid)
    idx = np.unique(np.round(np.linspace(0, 8192, 1000)).astype(int))
    t_eval = idx * grid.step
    ref1, ref2 = eq14_reference(t_eval)
    sup = max(float(np.max(np.abs(iterate.phi1[idx] - ref1))),
              float(np.max(np.abs(iterate.phi2[idx] - ref2))))
    elapsed = time.perf_counter() - start
    ok = sup < 1e-8 and elapsed < 1.0
    _record(1, "first-iterate reproduction", ok,
            f"sup-error {sup:.3e} (tol 1e-8) at {len(idx)} points, "
            f"{elapsed:.2f} s (limit 1 s)")


def test_criterion_02_picard_vs_rk4():
    start = time.perf_counter()
    step = FOUR_PI / 131072          # 9.59e-5, under the 1e-4 budget
    traj = solve_classical(SOLITON_PARAMS, SOLITON_INIT, time_lattice(FOUR_PI, 131072))
    grid = UniformGrid(0.0, FOUR_PI / 8192, 8193)
    iterate = picard_iterate(SOLITON_PARAMS, SOLITON_INIT, 4, grid)
    stride = 131072 // 8192
    sup = max(float(np.max(np.abs(iterate.phi1 - traj.phi1[::stride]))),
              float(np.max(np.abs(iterate.phi2 - traj.phi2[::stride]))))
    elapsed = time.perf_counter() - start
    ok = sup < 1e-6 and elapsed < 5.0
    _record(2, "Picard vs RK4 equivalence", ok,
            f"sup-distance {sup:.3e} (tol 1e-6, RK4 step {step:.3e}), "
            f"{elapsed:.2f} s (limit 5 s)")


def test_criterion_03_first_integral_drift(soliton_traj):
    drift = soliton_traj.max_c0_drift
    ok = drift < 1e-8
    _record(3, "first-integral conservation", ok,
            f"relative drift {drift:.3e} over [0, 4pi] (tol 1e-8)")


def test_criterion_04_envelope_band_and_period(soliton_polar):
    rho_min = float(np.min(soliton_polar.rho))
    rho_max = float(np.max(soliton_polar.rho))
    lag = _repeat_lag(soliton_polar.t, soliton_polar.rho,
                      0.5 * math.pi, 3.0 * math.pi)
    period_dev = (lag - TWO_PI) / TWO_PI
    ok = 0.94 <= rho_min and rho_max <= 1.06 and abs(period_dev) <= 0.05
    _record(4, "soliton envelope", ok,
            f"rho in [{rho_min:.5f}, {rho_max:.5f}] (band [0.94, 1.06]), "
            f"period {lag:.4f} = 2pi {period_dev * 100.0:+.3f}% (tol 5%)")


def test_criterion_05_collapse_amplitudes(collapse_polar):
    # The envelope peaks at t = pi, where phi1 = 0 and the drive has raised
    # phi2 above its undriven amplitude B.  One Picard pass is linear in the
    # initial data, so eq. (14) scaled by B gives, at t = pi (U = 1/2),
    # phi2 = B [1 + (V/U)(1/6 + 1/8 + 1/24)] = B (1 + V/3U).  The gap to the
    # integrated maximum is second order in V/U.
    u = math.sqrt(COLLAPSE_PARAMS.u2)
    rho_pred = COLLAPSE_INIT.b * (1.0 + COLLAPSE_PARAMS.v / (3.0 * u))
    rho_max = float(np.max(collapse_polar.rho))
    rho_min = float(np.min(collapse_polar.rho))
    gap = rho_max - rho_pred
    ok_max = abs(gap) <= 0.1
    ok_min = abs(rho_min - 0.02) <= 0.001
    _record(5, "collapse amplitudes", ok_max and ok_min,
            f"max rho {rho_max:.6f} vs {rho_pred:.6f} +/- 0.1 "
            f"(B(1 + V/3U), first order of eq. 14; gap {gap:+.2e}) "
            f"({'ok' if ok_max else 'out of band'}), "
            f"min rho {rho_min:.6f} vs 0.02 +/- 0.001 "
            f"({'ok' if ok_min else 'out of band'})")


def test_criterion_06_center_geometry(soliton_polar_8pi, capsys):
    # declared-c0 1 convention: b0 -> b0 * c0/1 = -5, so x_c swings +/-10
    spec = TrainSpec(n=8, b0=-10.0 * soliton_polar_8pi.c0, c0=soliton_polar_8pi.c0)
    xc = center_orbit(soliton_polar_8pi, spec, soliton_polar_8pi.t)
    xc_min = float(np.min(xc))
    xc_max = float(np.max(xc))
    lag = _repeat_lag(soliton_polar_8pi.t, xc, 2.5 * math.pi, 5.5 * math.pi)
    period_dev = (lag - FOUR_PI) / FOUR_PI

    rc = main(["snapshot", "--preset", "fig2-soliton", "--declared-c0", "1",
               "--times", "0,0.5pi,pi,1.5pi,2pi,2.5pi,3pi,4pi"])
    out = capsys.readouterr().out
    maxima = [int(line.rsplit("=", 1)[1]) for line in out.splitlines()
              if line.startswith("# snapshot.") and ".maxima" in line]

    ok = (abs(xc_min + 10.0) <= 0.2 and abs(xc_max - 10.0) <= 0.2
          and abs(period_dev) <= 0.02 and rc == 0 and len(maxima) == 8
          and all(m == 9 for m in maxima))
    _record(6, "center-orbit geometry", ok,
            f"x_c in [{xc_min:.5f}, {xc_max:.5f}] vs -10/+10 +/- 2%, "
            f"period {lag:.4f} = 4pi {period_dev * 100.0:+.3f}% (tol 2%), "
            f"density maxima per snapshot {maxima}")


def test_criterion_07_normalization_and_orthogonality(
        soliton_polar, collapse_polar, static_polar):
    worst_norm = 0.0
    worst_overlap = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        for ptraj, b0 in ((soliton_polar, -10.0), (collapse_polar, 0.02),
                          (static_polar, 0.0)):
            grid = auto_space_grid(ptraj, TrainSpec(n=8, b0=b0, c0=ptraj.c0))
            for t in _sample_times(ptraj, 10):
                fields = [psi_on_grid(
                    train_frame(ptraj, TrainSpec(n=n, b0=b0, c0=ptraj.c0),
                                float(t)), grid) for n in range(9)]
                worst_norm = max(worst_norm,
                                 max(abs(f.norm - 1.0) for f in fields))
                for m in range(9):
                    for n in range(m + 1, 9):
                        worst_overlap = max(worst_overlap,
                                            abs(overlap(fields[m], fields[n])))
    ok = worst_norm <= 1e-6 and worst_overlap < 1e-6
    _record(7, "normalization and orthogonality", ok,
            f"max |norm - 1| {worst_norm:.3e}, max |<m|n>| {worst_overlap:.3e} "
            f"(tol 1e-6, n <= 8, 10 times x 3 presets)")


def _evolve_against_analytic(ptraj, spec, params, grid, dt, times):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        psi0 = renormalized(psi_on_grid(train_frame(ptraj, spec, 0.0), grid))
        fields = split_step_evolve(psi0, params, PropagatorConfig(grid, dt),
                                   max(times), record_times=list(times))
        return [l2_density_distance(
            f, psi_on_grid(train_frame(ptraj, spec, f.t), grid))
            for f in fields]


def test_criterion_08_pde_certification(soliton_polar, soliton_spec,
                                        collapse_polar, collapse_spec):
    start = time.perf_counter()
    times = (0.5 * math.pi, math.pi, TWO_PI)

    half = -propagation_grid(soliton_polar, soliton_spec).start
    sol_grid = build_space_grid(0.0, half, 4096)
    sol = _evolve_against_analytic(soliton_polar, soliton_spec,
                                   SOLITON_PARAMS, sol_grid,
                                   TWO_PI / 4096, times)
    sol_half = _evolve_against_analytic(soliton_polar, soliton_spec,
                                        SOLITON_PARAMS, sol_grid,
                                        TWO_PI / 8192, times[1:2])
    sol_ratio = sol[1] / sol_half[0]

    col_grid = propagation_grid(collapse_polar, collapse_spec)
    col = _evolve_against_analytic(collapse_polar, collapse_spec,
                                   SOLITON_PARAMS, col_grid,
                                   TWO_PI / 24576, times)
    col_half = _evolve_against_analytic(collapse_polar, collapse_spec,
                                        SOLITON_PARAMS, col_grid,
                                        TWO_PI / 49152, times[0:1])
    col_ratio = col[0] / col_half[0]

    elapsed = time.perf_counter() - start
    worst = max(sol + col)
    ok = worst < 1e-3 and sol_ratio >= 3.5 and col_ratio >= 3.5 \
        and elapsed < 60.0
    _record(8, "end-to-end propagation", ok,
            f"L2 density distances soliton {[f'{d:.2e}' for d in sol]} / "
            f"collapse {[f'{d:.2e}' for d in col]} (tol 1e-3), "
            f"dt-halving ratios {sol_ratio:.2f} and {col_ratio:.2f} "
            f"(need >= 3.5), {elapsed:.1f} s (limit 60 s)")


def test_criterion_09_residual_convergence(soliton_polar, soliton_spec):
    # dynamic states: both residuals must refine at order >= 1.9
    step = soliton_polar.grid.step
    i_mid = soliton_polar.grid.count // 8
    tdse_levels = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        for stride, count in ((128, 4096), (64, 8192), (32, 16384)):
            grid = build_space_grid(0.0, 31.0, count)
            frames = [psi_on_grid(
                train_frame(soliton_polar, soliton_spec, i * step), grid)
                for i in (i_mid - stride, i_mid, i_mid + stride)]
            tdse_levels.append(tdse_residual(frames, SOLITON_PARAMS))
    tdse_orders = [math.log2(a / b)
                   for a, b in zip(tdse_levels, tdse_levels[1:])]

    eq4_levels = [verify_eq4(every(soliton_polar, stride), soliton_spec)
                  for stride in (128, 64, 32)]
    eq4_orders = [math.log2(a[k] / b[k])
                  for a, b in zip(eq4_levels, eq4_levels[1:])
                  for k in ("c", "b", "e", "f", "a")]

    # static limit: absolute residual floors
    traj = solve_classical(STATIC_PARAMS, STATIC_INIT, time_lattice(0.4, 2000))
    ptraj = polar_decompose(traj)
    spec0 = TrainSpec(n=0, b0=0.0, c0=ptraj.c0)
    fine = UniformGrid(-5.0, 2.5e-4, 40001)
    i0 = 1000                                    # t0 = 0.2
    frames = [psi_on_grid(train_frame(ptraj, spec0, i * 2e-4), fine)
              for i in (i0 - 1, i0, i0 + 1)]
    tdse_static = tdse_residual(frames, STATIC_PARAMS)
    eq4_static = max(verify_eq4(
        polar_decompose(solve_classical(STATIC_PARAMS, STATIC_INIT,
                                        time_lattice(0.2, 1000))), spec0).values())

    ok = min(tdse_orders) >= 1.9 and min(eq4_orders) >= 1.9 \
        and tdse_static < 1e-8 and eq4_static < 1e-8
    _record(9, "residual convergence", ok,
            f"tdse orders {[f'{o:.2f}' for o in tdse_orders]}, "
            f"eq4 orders min {min(eq4_orders):.2f} (need >= 1.9); "
            f"static floors tdse {tdse_static:.2e}, eq4 {eq4_static:.2e} "
            f"(tol 1e-8)")


def test_criterion_10_centered_reduction(soliton_polar):
    t = np.linspace(0.0, FOUR_PI, 257)
    spec = TrainSpec(n=5, b0=0.0, c0=soliton_polar.c0)
    xc = center_orbit(soliton_polar, spec, t)
    xc_exact_zero = bool(np.array_equal(xc, np.zeros_like(t)))

    x = np.linspace(-12.0, 12.0, 401)
    parity_exact = True
    for n in range(7):
        spec_n = TrainSpec(n=n, b0=0.0, c0=soliton_polar.c0)
        for i in (0, soliton_polar.grid.count // 3,
                  2 * soliton_polar.grid.count // 3):
            frame = train_frame(soliton_polar, spec_n,
                                i * soliton_polar.grid.step)
            r = amplitude(frame, x)
            parity_exact &= bool(np.array_equal(r,
                                                (-1.0) ** n
                                                * amplitude(frame, -x)))
    ok = xc_exact_zero and parity_exact
    _record(10, "centered reduction", ok,
            f"x_c identically zero: {xc_exact_zero}, "
            f"parity (-1)^n bitwise-exact (n <= 6, 3 times): {parity_exact}")


def test_criterion_11_energy_affinity(soliton_polar, static_polar):
    grid = auto_space_grid(soliton_polar,
                           TrainSpec(n=8, b0=-10.0, c0=soliton_polar.c0))
    worst_rel = 0.0
    for t in _sample_times(soliton_polar, 10):
        energies = [mean_energy(soliton_polar,
                                TrainSpec(n=n, b0=-10.0,
                                          c0=soliton_polar.c0),
                                float(t), grid) for n in range(8)]
        diffs = np.diff(energies)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(diffs - diffs[0]))
                              / abs(diffs[0])))

    static_grid = build_space_grid(0.0, 8.0, 1024)
    static_dev = max(abs(mean_energy(static_polar,
                                     TrainSpec(n=n, b0=0.0,
                                               c0=static_polar.c0),
                                     0.0, static_grid) - (n + 0.5))
                     for n in range(7))
    ok = worst_rel <= 1e-6 and static_dev < 1e-9
    _record(11, "energy affinity", ok,
            f"level-spacing spread {worst_rel:.3e} relative (tol 1e-6, "
            f"n <= 6, 10 times), static |E_n - (n + 1/2)| {static_dev:.3e}")
