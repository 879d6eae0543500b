"""Command line front end.

Commands
--------
classical       time series of the classical solution and its polar form
snapshot        wavefunction samples at requested times
series          center orbit, envelope width, and mean energy over time
verify          invariant battery with a JSON pass/fail report
oracle-compare  split-step propagation vs the closed-form states

Exit status: 0 success, 1 verification/comparison failure, 2 usage or
configuration error.  Output is deterministic: re-running a command with
the same configuration produces bit-identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import threading
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    PRESET_NAMES,
    csv_pieces,
    json_pieces,
    load_config_file,
    parse_pi_times,
    preset,
    render_csv,
    render_json,
    to_dict,
    validate,
)
from .errors import ConfigError, GridMismatch, UnknownPreset, WavetrainError
from .mathieu import (
    ClassicalInit,
    TrapParameters,
    first_integral,
    mathieu_residual,
    picard_iterate,
    polar_decompose,
    polar_ode_residuals,
    require_picard_budget,
    solve_classical,
)
from . import numerics
from .numerics import UniformGrid, build_space_grid, require_samples, require_step
from .splitstep import (
    PropagatorConfig,
    aliasing_dt_bound,
    l2_density_distance,
    lattice_steps,
    propagation_grid,
    renormalized,
    split_step_evolve,
)
from .trains import (
    NORM_TOL,
    TrainSpec,
    auto_space_grid,
    center_orbit,
    count_density_maxima,
    count_nodes,
    gram_matrix,
    hermite_scaled,
    hermite_table,
    level_energies,
    live_window,
    mean_energy_moments,
    overlap,
    psi_on_grid,
    train_frame,
    verify_eq4,
    xi_of,
)


# --------------------------------------------------------------------------
# argument parsing and config resolution

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetrains",
        description="Exact wave-packet trains of the periodically driven "
                    "harmonic trap: data files and verification reports.",
    )
    parser.add_argument("--version", action="version", version=f"wavetrains {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, t_final: bool = False):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--preset", choices=PRESET_NAMES,
                         help="named parameter set to start from")
        src.add_argument("--config", metavar="FILE",
                         help="JSON config file mirroring RunConfig (strict keys)")

        def override(flag: str, dest: str, **kwargs):
            # dest names the RunConfig field set ("train.n"); help shows "--n N"
            metavar = None if "choices" in kwargs else dest.partition(".")[2].upper()
            p.add_argument(flag, dest=dest, **{"metavar": metavar, **kwargs})

        override("--out", "output.path", metavar="PATH",
                 help="output file (default stdout)")
        override("--format", "output.format", choices=("csv", "json"),
                 help="output format (default csv; verify is always json)")
        override("--n", "train.n", type=int, help="quantum number of the train")
        override("--b0", "train.b0", type=float, help="center constant b0")
        override("--declared-c0", "train.declared_c0", type=float,
                 help="rescale b0 by (computed c0)/(declared c0) to match "
                      "a convention that normalizes the first integral")
        override("--iterations", "solver.iterations", type=int, help="Picard iterations")
        override("--rk4-step", "solver.rk4_step", type=float,
                 help="classical integrator step")
        override("--grid-points", "space.grid_points", type=int,
                 help="spatial grid point count (power of two)")
        override("--half-width", "space.half_width", type=float,
                 help="explicit spatial half-width (switches grid policy "
                      "to explicit; needs --grid-points)")
        override("--center", "space.center", type=float,
                 help="explicit spatial grid center (switches grid policy "
                      "to explicit; needs --grid-points and --half-width)")
        override("--times", "time.times", metavar="LIST",
                 help="comma-separated times, pi-units allowed: 0,0.5pi,2pi")
        if t_final:
            override("--t-final", "time.t_final", metavar="T",
                     help="time horizon (pi-units allowed, e.g. 4pi)")
            override("--samples", "time.samples", type=int,
                     help="number of output samples")

    common(sub.add_parser("classical", help="classical trajectory time series"),
           t_final=True)
    common(sub.add_parser("snapshot", help="wavefunction samples at --times"))
    common(sub.add_parser("series", help="center orbit, width, energy vs time"),
           t_final=True)
    common(sub.add_parser("verify", help="run the invariant battery"), t_final=True)
    oc = sub.add_parser("oracle-compare",
                        help="split-step propagation vs closed-form states")
    common(oc)
    oc.add_argument("--dt", metavar="STEP",
                    help="propagation step (pi-units allowed; default auto)")
    oc.add_argument("--tolerance", type=float, default=1e-3,
                    help="max allowed L2 density distance (default 1e-3)")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults -> preset or config file -> individual flag overrides, each
    set on the field its dest names ("train.n")."""
    if getattr(args, "config", None):
        cfg = load_config_file(args.config)
    elif getattr(args, "preset", None):
        cfg = preset(args.preset)
    else:
        cfg = RunConfig()
    for dest, text in vars(args).items():
        group, _, key = dest.rpartition(".")
        if not group or text is None:
            continue
        value = parse_pi_times(text) if key in ("times", "t_final") else text
        if key == "t_final":
            if len(value) != 1:
                raise ConfigError(f"--t-final wants one value, got {text!r}")
            value = value[0]
        fields = {key: value}
        if key in ("half_width", "center"):
            fields["policy"] = "explicit"
        cfg = dataclasses.replace(cfg, **{group: dataclasses.replace(getattr(cfg, group), **fields)})
    return validate(cfg)


# --------------------------------------------------------------------------
# shared pipeline pieces

def _effective_spec(cfg: RunConfig, c0: float) -> TrainSpec:
    b0 = cfg.train.b0
    if cfg.train.declared_c0 is not None:
        b0 *= c0 / cfg.train.declared_c0
    spec = TrainSpec(n=cfg.train.n, b0=b0, c0=c0)  # refuses c0 <= 0 first
    if not math.isfinite(b0 * b0 / c0):
        raise ConfigError(f"the effective b0 {b0:.4g} overflows b0^2/c0 (c0 = {c0:.4g})")
    return spec


def _commensurate_count(t_final: float, times, step: float,
                        what: str = "the classical solve") -> int:
    """Step count n so the grid t_final/n hits every requested time exactly
    whenever times/t_final are small rationals (they are for pi-unit
    inputs); otherwise the plain ceiling count.  A count past the cap is
    refused (TooManySamples, naming ``what``) before it is rounded."""
    require_samples(t_final / step + 1.0, what)
    n = max(1, math.ceil(t_final / step - 1e-12))
    denom = 1
    for t in times:
        if t == 0.0 or t == t_final:
            continue
        frac = Fraction(t / t_final).limit_denominator(4096)
        if abs(float(frac) - t / t_final) > 1e-12:
            return n
        denom = math.lcm(denom, frac.denominator)
    return denom * math.ceil(n / denom)


def _solve_polar(cfg: RunConfig, t_final: float, times=()):
    params = TrapParameters(cfg.params.u2, cfg.params.v)
    init = ClassicalInit(cfg.init.a, cfg.init.b, cfg.init.alpha, cfg.init.beta)
    count = _commensurate_count(t_final, times, cfg.solver.rk4_step)
    traj = solve_classical(params, init, (0.0, t_final), t_final / count)
    return traj, polar_decompose(traj)


def _sample_indices(count: int, samples: int) -> np.ndarray:
    idx = np.round(np.linspace(0, count - 1, min(samples, count))).astype(int)
    # non-decreasing, so repeats are adjacent (np.unique would import numpy.ma)
    return idx[np.r_[True, idx[1:] != idx[:-1]]]


def _space_grid(cfg: RunConfig, ptraj, spec: TrainSpec,
                propagate: bool = False) -> UniformGrid:
    """The explicit grid when the policy says so; otherwise the auto grid,
    sized for split-step propagation when ``propagate`` is set."""
    space = cfg.space
    if space.policy == "explicit":
        return build_space_grid(space.center, space.half_width, space.grid_points)
    if propagate:
        return propagation_grid(ptraj, spec, min_count=space.grid_points or 1024)
    return auto_space_grid(ptraj, spec, count=space.grid_points)


def _meta_common(c0: float) -> list[tuple[str, str]]:
    return [("derived.c0", f"{c0:.17g}"),
            ("tool.name", "wavetrains"),
            ("tool.version", __version__)]


def _render(cfg: RunConfig, columns, rows, meta_pairs) -> Iterable[str]:
    """The output text as pieces (header, then blocks of rows), each
    formatted by one ``render_csv`` / ``render_json`` call as ``_emit``
    asks for it."""
    if cfg.output.format == "json":
        render, meta = render_json, dict(meta_pairs)
        pieces = json_pieces(cfg, columns, rows, meta=meta)
    else:
        render, meta = render_csv, meta_pairs
        pieces = csv_pieces(cfg, columns, rows, meta=meta)
    while piece := render(cfg, columns, rows, meta, pieces=pieces):
        yield piece


# --------------------------------------------------------------------------
# commands

def run_classical(cfg: RunConfig) -> Iterable[str]:
    """t, phi1, phi2, rho, theta, drho, dtheta, c0_residual per sample."""
    traj, ptraj = _solve_polar(cfg, cfg.time.t_final)
    idx = _sample_indices(traj.grid.count, cfg.time.samples)
    wron = first_integral(traj.phi1, traj.phi2, traj.dphi1, traj.dphi2)
    scale = max(abs(ptraj.c0), np.finfo(float).tiny)
    rows = np.column_stack([
        traj.t[idx], traj.phi1[idx], traj.phi2[idx],
        ptraj.rho[idx], ptraj.theta[idx], ptraj.drho[idx], ptraj.dtheta[idx],
        (wron[idx] - ptraj.c0) / scale,
    ])
    columns = ["t", "phi1", "phi2", "rho", "theta", "drho", "dtheta", "c0_residual"]
    return _render(cfg, columns, rows, _meta_common(ptraj.c0))


def run_snapshot(cfg: RunConfig) -> Iterable[str]:
    """Long-format (t, x, density, re_psi, im_psi) rows for each requested
    time, with per-time norm, node count, maxima count, and center in the
    header metadata.

    Under the auto grid policy a field whose norm misses 1 by more than
    NORM_TOL is refused (ConfigError, exit 2): the grid the program chose
    cannot hold the state.  An explicit grid keeps the NormDeficitWarning."""
    times = cfg.time.times
    if not times:
        raise ConfigError("snapshot needs at least one entry in times")
    t_final = max(max(times), cfg.solver.rk4_step)
    traj, ptraj = _solve_polar(cfg, t_final, times)
    spec = _effective_spec(cfg, ptraj.c0)
    grid = _space_grid(cfg, ptraj, spec)
    x = grid.points()

    meta = _meta_common(ptraj.c0)
    meta.append(("grid.start", f"{grid.start:.17g}"))
    meta.append(("grid.step", f"{grid.step:.17g}"))
    meta.append(("grid.count", str(grid.count)))
    rows = np.empty((len(times) * grid.count, 5))
    for j, t_req in enumerate(times):
        i = int(round(t_req / traj.grid.step))
        i = min(max(i, 0), traj.grid.count - 1)
        frame = train_frame(ptraj, spec, ptraj.grid.start + i * ptraj.grid.step)
        field = psi_on_grid(frame, grid)
        if field.norm_deficit and cfg.space.policy == "auto":
            raise ConfigError(
                f"the auto grid of {grid.count} points cannot hold the state at "
                f"t = {field.t:.6g}: its norm there is {field.norm:.6g}, not 1 within "
                f"{NORM_TOL:g}; set the grid with --half-width and --grid-points")
        block = rows[j * grid.count:(j + 1) * grid.count]
        block[:, 0] = field.t
        block[:, 1] = x
        block[:, 2] = field.density()
        block[:, 3] = field.values.real
        block[:, 4] = field.values.imag
        meta.append((f"snapshot.{j}.t", f"{field.t:.17g}"))
        meta.append((f"snapshot.{j}.norm", f"{field.norm:.17g}"))
        nodes = count_nodes(hermite_scaled(spec.n, xi_of(frame, x)))
        meta.append((f"snapshot.{j}.nodes", str(nodes)))
        meta.append((f"snapshot.{j}.maxima", str(count_density_maxima(field))))
        meta.append((f"snapshot.{j}.xc",
                     f"{center_orbit(ptraj, spec, field.t):.17g}"))
    columns = ["t", "x", "density", "re_psi", "im_psi"]
    return _render(cfg, columns, rows, meta)


def run_series(cfg: RunConfig) -> Iterable[str]:
    """t, x_c, rho, E_n per time sample.

    E_n comes from the exact second moments of the state
    (``mean_energy_moments``), so no spatial grid is built; the verify
    battery keeps the quadrature (``level_energies``) as its check."""
    traj, ptraj = _solve_polar(cfg, cfg.time.t_final)
    spec = _effective_spec(cfg, ptraj.c0)
    idx = _sample_indices(traj.grid.count, cfg.time.samples)
    xc = (spec.b0 / spec.c0) * traj.phi1[idx]
    energy = mean_energy_moments(ptraj, spec, idx)
    rows = np.column_stack([traj.t[idx], xc, ptraj.rho[idx], energy])
    return _render(cfg, ["t", "xc", "rho", "energy"], rows, _meta_common(ptraj.c0))


def _auto_dt(params: TrapParameters, grid: UniformGrid, t_final: float,
             times) -> float:
    """Default propagation step: the accuracy target pi/2048 (~1e-4
    splitting error at figure scale) unless 90% of the sampling bound
    ``aliasing_dt_bound`` is smaller, rounded down so every requested time
    is a step multiple; accuracy is certified by closed-form distances."""
    target = min(math.pi / 2048.0, 0.9 * aliasing_dt_bound(params, grid))
    count = _commensurate_count(t_final, times, target, "the split-step propagation")
    return t_final / count


def _oracle_rows(ptraj, spec: TrainSpec, grid: UniformGrid, dt: float,
                 times, cancel=None) -> list[list[float]]:
    """Propagate the renormalized closed-form state at t = 0 by split-step
    through the sorted ``times``; [t, L2 density distance, |overlap|]
    against the closed form at each."""
    psi0 = renormalized(psi_on_grid(train_frame(ptraj, spec, 0.0), grid))
    evolved = split_step_evolve(psi0, ptraj.params, PropagatorConfig(grid, dt),
                                times[-1], record_times=list(times), cancel=cancel)
    rows = []
    for t, field in zip(times, evolved):
        exact = psi_on_grid(train_frame(ptraj, spec, t), grid)
        rows.append([t, l2_density_distance(field, exact), abs(overlap(exact, field))])
    return rows


def run_oracle_compare(cfg: RunConfig, dt: float | None = None,
                       tolerance: float = 1e-3) -> tuple[Iterable[str], bool]:
    """Propagate the closed-form initial state with the split-step scheme
    and compare densities at the requested times.

    Emits t, density_distance, fidelity per requested time; fails (exit 1)
    when any distance exceeds the tolerance.  A given ``dt`` must divide
    every requested time (ConfigError, exit 2, otherwise)."""
    times = sorted(set(cfg.time.times))
    if not times or max(times) <= 0:
        raise ConfigError("oracle-compare needs at least one positive time")
    t_final = max(times)
    traj, ptraj = _solve_polar(cfg, t_final, times)
    spec = _effective_spec(cfg, ptraj.c0)
    grid = _space_grid(cfg, ptraj, spec, propagate=True)
    if dt is None:
        dt = _auto_dt(ptraj.params, grid, t_final, times)
    else:
        for t in times:
            try:
                lattice_steps(t, dt)
            except GridMismatch as exc:
                raise ConfigError(f"--dt does not divide the requested times: {exc}") from None
    rows = _oracle_rows(ptraj, spec, grid, dt, times)
    worst = max(row[1] for row in rows)
    meta = _meta_common(ptraj.c0)
    meta.append(("propagation.dt", f"{dt:.17g}"))
    meta.append(("propagation.tolerance", f"{tolerance:.17g}"))
    meta.append(("propagation.grid_count", str(grid.count)))
    meta.append(("propagation.max_distance", f"{worst:.17g}"))
    pieces = _render(cfg, ["t", "density_distance", "fidelity"], rows, meta)
    return pieces, worst <= tolerance


# --------------------------------------------------------------------------
# verify battery

def _residual_checks(check, cfg: RunConfig, traj, ptraj, spec: TrainSpec,
                     step_a: float, step_c: float):
    """The classical, polar and coefficient-ODE residual checks on one
    trajectory, refined to ``step_a`` if that is finer: the coefficient ODEs
    on every sample, the classical and polar equations on every m-th, m the
    number of samples within ``step_c`` (at least 1, and at most what leaves
    6 samples).  The refined one lives only inside this call, so it is freed
    before the battery's spatial stages."""
    if step_a < traj.grid.step:
        traj = solve_classical(traj.params, traj.init, (0.0, cfg.time.t_final), step_a)
        ptraj = polar_decompose(traj)
    grid = traj.grid
    m = max(1, min(math.floor(step_c / grid.step), (grid.count - 1) // 5))
    sub = None if m == 1 else UniformGrid(0.0, m * grid.step, (grid.count - 1) // m + 1)
    check("mathieu-residual", mathieu_residual(traj, sub, relative=True), 1e-4)
    polar_res = polar_ode_residuals(ptraj, sub, relative=True)
    check("polar-theta-residual", polar_res["theta"], 1e-4)
    check("polar-rho-residual", polar_res["rho"], 1e-4)
    eq4 = verify_eq4(ptraj, spec, relative=True)
    for key in ("c", "b", "e", "f", "a"):
        check(f"coeff-{key}-residual", eq4[key], 1e-4)


def _state_checks(check, cfg: RunConfig, ptraj, spec: TrainSpec):
    """The quantum-state checks on 11 times, each from the Hermite table
    h_0..h_8 of xi(x) on the live window of the check grid (exact zeros
    outside), walked in blocks of ``numerics.RESIDUAL_BLOCK`` columns: the
    blocks' Gram matrices add up to the window's, which gives the norm and
    the overlaps, and so do their energies E_0..E_7 from rows 0..7.  Only
    the window's h_n row is kept whole, for the node count."""
    grid_spec = TrainSpec(n=max(spec.n, 8), b0=spec.b0, c0=spec.c0)
    grid = _space_grid(cfg, ptraj, grid_spec)
    block = numerics.RESIDUAL_BLOCK
    buf = np.empty((9, min(block, grid.count)))
    worst_norm = worst_cross = worst_aff = 0.0
    worst_nodes = 0
    for tv in ptraj.t[_sample_indices(ptraj.grid.count, 11)]:
        frame = train_frame(ptraj, spec, float(tv))
        live = live_window(frame, grid)
        h_n = np.empty(live.stop - live.start)
        gram, energies, norm = np.zeros((9, 9)), np.zeros(8), 0.0
        for a in range(live.start, live.stop, block):
            b = min(a + block, live.stop)
            cols = slice(a - live.start, b - live.start)
            x = grid.start + np.arange(a, b) * grid.step  # as grid.points() has it
            xi = xi_of(frame, x)
            table = hermite_table(8, xi, out=buf[:, :len(x)])
            block_gram = gram_matrix(frame, table, grid.step)
            gram += block_gram
            energies += level_energies(ptraj, frame, table[:8], x, grid.step, block_gram)
            if spec.n <= 8:
                h_n[cols] = table[spec.n]
            else:
                h_n[cols] = h = hermite_scaled(spec.n, xi)
                norm += gram_matrix(frame, h[np.newaxis], grid.step)[0, 0]
        if spec.n <= 8:
            norm = gram[spec.n, spec.n]
        worst_norm = max(worst_norm, abs(float(norm) - 1.0))
        # nodes of h_n(xi(x)) on the checked grid: fewer than n when the
        # grid does not resolve the packet
        worst_nodes = max(worst_nodes, abs(count_nodes(h_n) - spec.n))
        cross = np.abs(gram[np.triu_indices(len(gram), 1)])
        worst_cross = max(worst_cross, float(np.max(cross)))
        # energy affinity: differences E_{m+1} - E_m are m-independent; a
        # ladder with no spacing (the state off the grid) reads 1.0
        diffs = np.diff(energies)
        spread = float(np.max(np.abs(diffs - diffs[0])))
        worst_aff = max(worst_aff, spread / abs(diffs[0]) if diffs[0] else 1.0)
    check("normalization", worst_norm, 1e-6)
    check("node-count", worst_nodes, 0)
    check("orthogonality", worst_cross, 1e-6)
    check("energy-affinity", worst_aff, 1e-6)


def _checks_before_pde(check, cfg: RunConfig, traj, ptraj, spec: TrainSpec,
                       step_a: float, step_c: float, pic_grid: UniformGrid):
    """Every check of the battery but the PDE comparison, in report order."""
    # classical conservation
    check("first-integral-drift", ptraj.max_c0_drift, 1e-8)

    _residual_checks(check, cfg, traj, ptraj, spec, step_a, step_c)

    # Picard vs RK4 on a shared grid
    pic = picard_iterate(traj.params, traj.init, cfg.solver.iterations, pic_grid)
    rk = solve_classical(traj.params, traj.init, (0.0, cfg.time.t_final), pic_grid.step)
    sup = max(float(np.max(np.abs(pic.phi1 - rk.phi1))),
              float(np.max(np.abs(pic.phi2 - rk.phi2))))
    amp = max(float(np.max(np.abs(rk.phi1))), float(np.max(np.abs(rk.phi2))))
    check("picard-vs-rk4", sup, 1e-6 * (1.0 + amp))

    _state_checks(check, cfg, ptraj, spec)


def _battery(cfg: RunConfig) -> dict:
    """All invariant checks for the configured run; see the README for the
    tolerance rationale.  Residual checks are scale-relative so one
    tolerance covers both the weakly driven and the strongly squeezed
    regimes; the residual checks run on a refined trajectory
    (``_residual_checks``) sized before the PDE stage starts."""
    checks: list[dict] = []

    def check(name: str, value: float, tolerance: float):
        checks.append({
            "name": name,
            "value": float(value),
            "tolerance": float(tolerance),
            "passed": bool(value <= tolerance),
        })

    t_final = cfg.time.t_final
    horizon = min(0.5 * math.pi, t_final)
    traj, ptraj = _solve_polar(cfg, t_final, times=(horizon,))
    spec = _effective_spec(cfg, ptraj.c0)

    # analytic states against the independent PDE propagator, on a worker
    # thread that overlaps the other checks (numpy's FFT and cos/sin release
    # the GIL); its result or error is taken up last, as in a serial run,
    # and an error of the other checks cancels it.  Its grid is sized for
    # propagation whatever grid the state checks use; its grid and step errors,
    # then the refined residual solve's size and the Picard budget, surface
    # here, before it starts.
    pgrid = propagation_grid(ptraj, spec, min_count=1024)
    dt = _auto_dt(ptraj.params, pgrid, horizon, (horizon,))
    # the residual checks' trajectory is refined until the fastest coefficient
    # phase (a_n's, at up to max|dtheta| (1/2 + n + b0^2/(2 c0))) advances at
    # most 0.06 rad per step, well resolved by fourth-order differences; the
    # factor is floored at its n = 4 value, since the c, b, e, f residuals do
    # not depend on n and a low n must not coarsen their step.  The classical
    # and polar residuals take the step of the floor alone: neither n nor b0
    # enters their equations, and a finer step only lifts their rounding
    # floor, about eps/h^2 for a second difference.
    rate = float(np.max(np.abs(ptraj.dtheta)))
    step_a = min(cfg.solver.rk4_step,
                 0.06 / (rate * max(0.5 + spec.n + spec.b0**2 / (2.0 * spec.c0), 4.5)))
    step_c = min(cfg.solver.rk4_step, 0.06 / (rate * 4.5))
    require_samples(t_final / step_a + 1.0, "the classical solve")
    pic_grid = UniformGrid(0.0, require_step(t_final / 8192, "the Picard grid"), 8193)
    require_picard_budget(cfg.solver.iterations, pic_grid.count)
    oracle: list = []
    cancel = threading.Event()

    def run_oracle():
        try:
            oracle.append(_oracle_rows(ptraj, spec, pgrid, dt, [horizon], cancel))
        except BaseException as exc:  # re-raised in the calling thread
            oracle.append(exc)

    worker = threading.Thread(target=run_oracle, name="pde-oracle")
    worker.start()
    try:
        _checks_before_pde(check, cfg, traj, ptraj, spec, step_a, step_c, pic_grid)
    except BaseException:
        cancel.set()
        raise
    finally:
        worker.join()
    [result] = oracle
    if isinstance(result, BaseException):
        raise result
    [(_, distance, _)] = result
    check("pde-density-distance", distance, 1e-3)

    passed = all(c["passed"] for c in checks)
    return {
        "config": to_dict(cfg),
        "derived": {"c0": ptraj.c0, "tool": "wavetrains", "version": __version__},
        "checks": checks,
        "passed": passed,
    }


def run_verify(cfg: RunConfig) -> tuple[Iterable[str], bool]:
    """JSON report of the invariant battery, as one piece; second element
    is overall pass."""
    report = _battery(cfg)
    return [json.dumps(report, sort_keys=True, indent=2) + "\n"], report["passed"]


# --------------------------------------------------------------------------
# entry point

def _emit(pieces: Iterable[str], path: str | None):
    """Write a command's output piece by piece as the pieces are formatted,
    to stdout or to ``path``, so the whole text never exists at once.  The
    file is opened only here, after the command has returned, so a command
    refused before it returns leaves no file; an interrupt while the pieces
    are written leaves a partial one."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        ok = True
        if args.command == "classical":
            pieces = run_classical(cfg)
        elif args.command == "snapshot":
            pieces = run_snapshot(cfg)
        elif args.command == "series":
            pieces = run_series(cfg)
        elif args.command == "verify":
            pieces, ok = run_verify(cfg)
        elif args.command == "oracle-compare":
            dt = None
            if args.dt is not None:
                values = parse_pi_times(args.dt)
                if len(values) != 1 or not 0 < values[0] < math.inf:
                    raise ConfigError(f"--dt wants one positive finite value, got {args.dt!r}")
                dt = values[0]
            if not 0 <= args.tolerance < math.inf:
                raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance!r}")
            pieces, ok = run_oracle_compare(cfg, dt=dt, tolerance=args.tolerance)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
        try:
            _emit(pieces, cfg.output.path)
        except BrokenPipeError:
            # the reader stopped early (``| head``); point stdout at the null
            # device so the interpreter's final flush does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return 0 if ok else 1
    except (ConfigError, UnknownPreset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WavetrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
