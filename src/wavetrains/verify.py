"""The invariant battery of ``wavetrains verify``: ``battery`` runs the 15
checks of a resolved run in report order.  It picks the residual steps and
the Picard grid, and runs the PDE comparison (``oracle_rows``, which
``oracle-compare`` also runs) in a forked child process beside the other
checks.  See the README for the tolerance rationale."""

from __future__ import annotations

import math
import os
import pickle
import sys
import warnings
from contextlib import contextmanager
from itertools import chain

import numpy as np

from . import numerics
from .mathieu import (
    mathieu_equations,
    picard_iterate,
    polar_equations,
    polar_windows,
    require_picard_budget,
    solve_classical,
)
from .errors import WavetrainError
from .numerics import UniformGrid, commensurate_count, residual_maxima, sample_indices
from .numerics import time_lattice
from .splitstep import PropagatorConfig, l2_density_distance, renormalized, split_step_evolve
from .trains import (
    NodeCount,
    TrainSpec,
    coefficient_equations,
    gram_matrix,
    hermite_scaled,
    hermite_table,
    level_energies,
    live_window,
    overlap,
    psi_on_grid,
    train_frame,
    xi_of,
)

# the battery forks on Linux only: macOS system libraries are not fork-safe
# (multiprocessing spawns there by default)
_FORK = sys.platform == "linux"
_QUIET_FORK = ("ignore", None, DeprecationWarning, None, 0)  # a warnings.filters entry


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(value <= tolerance),
    }


def oracle_rows(ptraj, spec: TrainSpec, grid: UniformGrid, dt: float,
                times) -> list[list[float]]:
    """Propagate the renormalized closed-form state at t = 0 by split-step
    through the sorted ``times``; [t, L2 density distance, |overlap|]
    against the closed form at each."""
    psi0 = renormalized(psi_on_grid(train_frame(ptraj, spec, 0.0), grid))
    evolved = split_step_evolve(psi0, ptraj.params, PropagatorConfig(grid, dt),
                                times[-1], record_times=list(times))
    rows = []
    for t, field in zip(times, evolved):
        exact = psi_on_grid(train_frame(ptraj, spec, t), grid)
        rows.append([t, l2_density_distance(field, exact), abs(overlap(exact, field))])
    return rows


@contextmanager
def _forked(what: str, fn, *args):
    """Run ``fn(*args)`` in a child process made by ``os.fork`` while the
    body runs.  The body gets ``join``, which returns the child's result or
    raises its error, after issuing the child's warnings here in order
    (``_reissue``); a body that raises kills and reaps the child first.  The
    child sends ((result, error), warnings) back as one pickle through a
    pipe and always ends in ``os._exit``, so no atexit handler or buffer
    flush runs twice.  A child that ends without a whole pickle (it exited,
    was killed, or its error cannot be pickled) is a WavetrainError that
    names ``what`` and the wait status.  Without ``_FORK`` the call runs at
    ``join``, in a serial run's order."""
    if not _FORK:
        yield lambda: fn(*args)
        return
    read, write = os.pipe()
    # Python 3.12+ warns on the fork of a process with threads, as OpenBLAS's
    # pool is, and the child runs no BLAS call.  The filter goes into the
    # list and out in place: catch_warnings would reset the once-per-location
    # registry of every module
    warnings.filters.insert(0, _QUIET_FORK)
    try:
        pid = os.fork()
    finally:
        warnings.filters.remove(_QUIET_FORK)
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    outcome = fn(*args), None
                except BaseException as exc:
                    outcome = None, exc
            payload = pickle.dumps(
                (outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
            pickle.loads(payload)  # an error that cannot be rebuilt is not sent
            with open(write, "wb") as sink:
                sink.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    reaped = False

    def join():
        nonlocal reaped
        payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        try:
            (result, error), caught = pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise WavetrainError(f"{what} ended without a result ({how})") from None
        _reissue(caught)
        if error is not None:
            raise error
        return result

    with open(read, "rb") as pipe:
        try:
            yield join
        except BaseException:
            if not reaped:
                import signal  # only here: the CLI does not load it otherwise
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise


def _reissue(caught) -> None:
    """Issue the (message, category, filename, lineno) warnings of a child
    again, in order, through this process's filters and the once-per-location
    registry of the module whose file raised each, as ``warnings.warn`` there
    would have."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno,
                               getattr(module, "__name__", None), registry)


def _residual_grid(traj, ptraj, spec: TrainSpec, t_final: float,
                   rk4_step: float) -> tuple[UniformGrid, float]:
    """The grid of the residual checks' trajectory and the step of the
    classical and polar ones (see ``_stride``).  The trajectory is refined
    until the fastest coefficient phase (a_n's, at up to max|dtheta|
    (1/2 + n + b0^2/(2 c0))) advances at most 0.06 rad per step, well
    resolved by fourth-order differences; the factor is floored at its n = 4
    value, since the c, b, e, f residuals do not depend on n and a low n
    must not coarsen their step.
    The classical and polar residuals take the step of the floor alone:
    neither n nor b0 enters their equations, and a finer step only lifts
    their rounding floor, about eps/h^2 for a second difference.  A refined
    grid past the sample cap is refused here."""
    rate = float(np.max(np.abs(ptraj.dtheta)))
    step_a = min(rk4_step,
                 0.06 / (rate * max(0.5 + spec.n + spec.b0**2 / (2.0 * spec.c0), 4.5)))
    step_c = min(rk4_step, 0.06 / (rate * 4.5))
    if step_a < traj.grid.step:
        return time_lattice(t_final, commensurate_count(t_final, (), step_a)), step_c
    return traj.grid, step_c


def _stride(grid: UniformGrid, step_c: float) -> int:
    """m, the number of steps of ``grid`` within ``step_c``: at least 1, and
    at most what leaves 6 samples."""
    return max(1, min(math.floor(step_c / grid.step), (grid.count - 1) // 5))


def _residual_windows(params, init, spec: TrainSpec, grid: UniformGrid, m: int):
    """``residual_maxima`` windows of the three residual sweeps over the RK4
    solve on ``grid``, solved and polar-decomposed one window at a time
    (``mathieu.polar_windows``): the coefficient ODEs on every sample, the
    classical and polar equations on the samples whose index is a multiple
    of m, at the times of the grid of every m-th sample.  Each window is
    swept with the samples of the windows before it that its rows' stencils
    still need: the two left neighbours of each row not yet swept, and at
    the grid's end the five of the one-sided stencils.  Rows whose right
    neighbours lie in the next window wait for it, so every row is swept
    once, as in a whole-array sweep, and gives the same value bit for bit."""
    step_m = m * grid.step  # the step of every m-th sample
    cols, lo = None, 0  # phi1, phi2, rho, theta, drho, dtheta from sample lo on
    done, done_c = 0, 0  # the first row not yet swept, of all and of every m-th sample
    for first, window in polar_windows(params, init, grid):
        if cols is not None:
            keep = max(min(done - 2, (done_c - 5) * m) - lo, 0)
            cols = [np.concatenate([c[keep:], w]) for c, w in zip(cols, window)]
            lo += keep
        else:
            cols = window
        hi = first + len(window[0])
        last = hi == grid.count
        stop = hi if last else hi - 2
        t = grid.start + np.arange(lo, hi) * grid.step  # as grid.points() has it
        yield (slice(done - lo, stop - lo),
               coefficient_equations(params, spec, t, grid.step, *cols[2:]))
        done = stop
        c_lo, c_hi = -(-lo // m), (hi - 1) // m + 1
        stop_c = c_hi if last else c_hi - 2
        if stop_c > done_c and (last or c_hi - c_lo >= 6):
            tc = grid.start + np.arange(c_lo, c_hi) * step_m
            phi1, phi2, *polar = (c[c_lo * m - lo::m] for c in cols)
            yield (slice(done_c - c_lo, stop_c - c_lo),
                   chain(mathieu_equations(params, tc, step_m, phi1, phi2),
                         polar_equations(params, tc, step_m, *polar)))
            done_c = stop_c


def _residual_checks(traj, spec: TrainSpec, grid: UniformGrid, step_c: float) -> list[dict]:
    """The classical, polar and coefficient-ODE residual checks on the RK4
    trajectory on ``grid`` (``_residual_grid``), the classical and polar ones
    on every m-th sample (``_stride``), swept as it is solved
    (``_residual_windows``), so it is never held whole: memory is bounded by
    one window however far b0 and n refine it."""
    windows = _residual_windows(traj.params, traj.init, spec, grid, _stride(grid, step_c))
    worst = residual_maxima(windows, relative=True)
    checks = [_check("mathieu-residual", max(worst["phi1"], worst["phi2"]), 1e-4),
              _check("polar-theta-residual", worst["theta"], 1e-4),
              _check("polar-rho-residual", worst["rho"], 1e-4)]
    return checks + [_check(f"coeff-{key}-residual", worst[key], 1e-4) for key in "cbefa"]


def _state_checks(ptraj, spec: TrainSpec, grid: UniformGrid) -> list[dict]:
    """The quantum-state checks on 11 times, each from the Hermite table
    h_0..h_8 of xi(x) on the live window of the check ``grid`` (exact zeros
    outside), walked in blocks of ``numerics.RESIDUAL_BLOCK`` columns: the
    blocks' Gram matrices add up to the window's, which gives the norm and
    the overlaps, and so do their energies E_0..E_7 from rows 0..7, and the
    node count of the h_n row (``NodeCount``)."""
    block = numerics.RESIDUAL_BLOCK
    buf = np.empty((9, min(block, grid.count)))
    worst_norm = worst_cross = worst_aff = 0.0
    worst_nodes = 0
    for tv in ptraj.t[sample_indices(ptraj.grid.count, 11)]:
        frame = train_frame(ptraj, spec, float(tv))
        live = live_window(frame, grid)
        nodes = NodeCount()
        gram, energies, norm = np.zeros((9, 9)), np.zeros(8), 0.0
        for a in range(live.start, live.stop, block):
            b = min(a + block, live.stop)
            x = grid.start + np.arange(a, b) * grid.step  # as grid.points() has it
            xi = xi_of(frame, x)
            table = hermite_table(8, xi, out=buf[:, :len(x)])
            block_gram = gram_matrix(frame, table, grid.step)
            gram += block_gram
            energies += level_energies(frame, table[:8], x, grid.step, block_gram)
            if spec.n <= 8:
                nodes.add(table[spec.n])
            else:
                nodes.add(h := hermite_scaled(spec.n, xi))
                norm += gram_matrix(frame, h[np.newaxis], grid.step)[0, 0]
        if spec.n <= 8:
            norm = gram[spec.n, spec.n]
        worst_norm = max(worst_norm, abs(float(norm) - 1.0))
        # nodes of h_n(xi(x)) on the checked grid: fewer than n when the
        # grid does not resolve the packet
        worst_nodes = max(worst_nodes, abs(nodes.count() - spec.n))
        cross = np.abs(gram[np.triu_indices(len(gram), 1)])
        worst_cross = max(worst_cross, float(np.max(cross)))
        # energy affinity: differences E_{m+1} - E_m are m-independent; a
        # ladder with no spacing (the state off the grid) reads 1.0
        diffs = np.diff(energies)
        spread = float(np.max(np.abs(diffs - diffs[0])))
        worst_aff = max(worst_aff, spread / abs(diffs[0]) if diffs[0] else 1.0)
    return [_check("normalization", worst_norm, 1e-6),
            _check("node-count", worst_nodes, 0),
            _check("orthogonality", worst_cross, 1e-6),
            _check("energy-affinity", worst_aff, 1e-6)]


def battery(traj, ptraj, spec: TrainSpec, grid: UniformGrid, pgrid: UniformGrid,
            dt: float, horizon: float, t_final: float, rk4_step: float,
            iterations: int) -> list[dict]:
    """Every check of the run as {name, value, tolerance, passed}, in report
    order: the state checks on ``grid``, the PDE comparison on ``pgrid`` at
    step ``dt`` to ``horizon``.  Residual checks are scale-relative so one
    tolerance covers both the weakly driven and the strongly squeezed regimes."""
    # the refined residual solve's size and the Picard budget are refused
    # here, before the PDE child starts
    res_grid, step_c = _residual_grid(traj, ptraj, spec, t_final, rk4_step)
    pic_grid = time_lattice(t_final, 8192, "the Picard grid")
    require_picard_budget(iterations, pic_grid.count)

    # analytic states against the independent PDE propagator, in a child
    # process that has its own core and interpreter lock while the other
    # checks run; its result or error is taken up last, as in a serial run,
    # and an error of the other checks kills it
    with _forked("the PDE stage", oracle_rows, ptraj, spec, pgrid, dt, [horizon]) as oracle:
        # classical conservation
        checks = [_check("first-integral-drift", ptraj.max_c0_drift, 1e-8)]
        checks += _residual_checks(traj, spec, res_grid, step_c)
        # Picard vs RK4 on a shared grid
        pic = picard_iterate(traj.params, traj.init, iterations, pic_grid)
        rk = solve_classical(traj.params, traj.init, pic_grid)
        sup = max(float(np.max(np.abs(pic.phi1 - rk.phi1))),
                  float(np.max(np.abs(pic.phi2 - rk.phi2))))
        amp = max(float(np.max(np.abs(rk.phi1))), float(np.max(np.abs(rk.phi2))))
        checks.append(_check("picard-vs-rk4", sup, 1e-6 * (1.0 + amp)))
        checks += _state_checks(ptraj, spec, grid)
        [(_, distance, _)] = oracle()
    return checks + [_check("pde-density-distance", distance, 1e-3)]
