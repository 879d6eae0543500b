"""Command line front end.

Commands
--------
classical       time series of the classical solution and its polar form
snapshot        wavefunction samples at requested times
series          center orbit, envelope width, and mean energy over time
verify          invariant battery (``wavetrains.verify``), JSON pass/fail report
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
    polar_decompose,
    require_rk4_step,
    solve_classical,
)
from .numerics import UniformGrid, build_space_grid, require_samples, sample_indices
from .splitstep import aliasing_dt_bound, lattice_steps, propagation_grid
from .trains import (
    NORM_TOL,
    FieldRows,
    TrainSpec,
    auto_space_grid,
    center_orbit,
    count_density_maxima,
    count_nodes,
    hermite_scaled,
    mean_energy_moments,
    psi_on_grid,
    train_frame,
    xi_of,
)
from .verify import battery, oracle_rows


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
    spec = TrainSpec(n=cfg.train.n, b0=b0, c0=c0)  # refuses a c0 not > 0 (NaN too) first
    if not math.isfinite(b0 * b0 / c0):
        raise ConfigError(f"the effective b0 {b0:.4g} overflows b0^2/c0 (c0 = {c0:.4g})")
    return spec


def _commensurate_count(t_final: float, times, step: float,
                        what: str = "the classical solve") -> int:
    """Step count n so the grid t_final/n hits every requested time exactly
    whenever times/t_final are small rationals (they are for pi-unit
    inputs); otherwise the plain ceiling count.  A count past the cap, or a
    step of 0.0, is refused (TooManySamples, naming ``what``) before it is rounded."""
    require_samples(t_final / step + 1.0 if step else math.inf, what)
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
    h = t_final / _commensurate_count(t_final, times, cfg.solver.rk4_step)
    require_rk4_step(params, h)
    traj = solve_classical(params, init, (0.0, t_final), h)
    return traj, polar_decompose(traj)


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
    idx = sample_indices(traj.grid.count, cfg.time.samples)
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

    Each time's field is evaluated on the grid for its header entries and
    dropped before the next; the rows are a ``FieldRows`` table of the
    frames, which evaluates psi again a block at a time as the writer
    formats it, so the peak holds one field, not one per time.

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
    frames = []
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
        frames.append(frame)
        meta.append((f"snapshot.{j}.t", f"{field.t:.17g}"))
        meta.append((f"snapshot.{j}.norm", f"{field.norm:.17g}"))
        nodes = count_nodes(hermite_scaled(spec.n, xi_of(frame, x)))
        meta.append((f"snapshot.{j}.nodes", str(nodes)))
        meta.append((f"snapshot.{j}.maxima", str(count_density_maxima(field))))
        meta.append((f"snapshot.{j}.xc",
                     f"{center_orbit(ptraj, spec, field.t):.17g}"))
        del field  # before the next time's field is built
    columns = ["t", "x", "density", "re_psi", "im_psi"]
    return _render(cfg, columns, FieldRows(frames, x), meta)


def run_series(cfg: RunConfig) -> Iterable[str]:
    """t, x_c, rho, E_n per time sample.

    E_n comes from the exact second moments of the state
    (``mean_energy_moments``), so no spatial grid is built; the verify
    battery keeps the quadrature (``level_energies``) as its check."""
    traj, ptraj = _solve_polar(cfg, cfg.time.t_final)
    spec = _effective_spec(cfg, ptraj.c0)
    idx = sample_indices(traj.grid.count, cfg.time.samples)
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
    rows = oracle_rows(ptraj, spec, grid, dt, times)
    worst = max(row[1] for row in rows)
    meta = _meta_common(ptraj.c0)
    meta.append(("propagation.dt", f"{dt:.17g}"))
    meta.append(("propagation.tolerance", f"{tolerance:.17g}"))
    meta.append(("propagation.grid_count", str(grid.count)))
    meta.append(("propagation.max_distance", f"{worst:.17g}"))
    pieces = _render(cfg, ["t", "density_distance", "fidelity"], rows, meta)
    return pieces, worst <= tolerance


def run_verify(cfg: RunConfig) -> tuple[Iterable[str], bool]:
    """JSON report of ``verify.battery``, as one piece; second element is
    overall pass.  The run is resolved before the battery's PDE worker starts:
    the PDE's grid is sized for propagation, the state checks' for h_0..h_8."""
    t_final = cfg.time.t_final
    horizon = min(0.5 * math.pi, t_final)
    traj, ptraj = _solve_polar(cfg, t_final, times=(horizon,))
    spec = _effective_spec(cfg, ptraj.c0)
    pgrid = propagation_grid(ptraj, spec, min_count=1024)
    dt = _auto_dt(ptraj.params, pgrid, horizon, (horizon,))
    grid = _space_grid(cfg, ptraj, TrainSpec(n=max(spec.n, 8), b0=spec.b0, c0=spec.c0))
    checks = battery(traj, ptraj, spec, grid, pgrid, dt, horizon, t_final,
                     cfg.solver.rk4_step, cfg.solver.iterations)
    report = {
        "config": to_dict(cfg),
        "derived": {"c0": ptraj.c0, "tool": "wavetrains", "version": __version__},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
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
