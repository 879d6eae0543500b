"""In-memory span tracer that instruments the wavetrains layers from outside.

``instrument`` wraps each public layer function listed in ``TARGETS`` and
rebinds the wrapper under every name that bound the original in any
loaded ``wavetrains`` module.  The CLI imports most layer functions with
``from ... import ...`` and ``trains`` calls ``hermite_scaled`` through its
own globals, so patching only the defining module would miss most calls.
``UniformGrid.points`` is patched on the class.

A span is ``[name, start, end, parent_index, attrs]``; spans stay in memory
and the caller writes them out once the traced work has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict


def _steps_of_result(args, result):
    return {"steps": result.grid.count - 1}


def _grid_count(key):
    return lambda args, result: {"points": args[key].count}


def _propagation(args, result):
    config = args["config"]
    span = args["t_final"] - args["psi0"].t
    return {"steps": int(round(span / config.dt)), "points": config.grid.count}


def _result_count(args, result):
    return {"points": result.count}


def _result_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


# (defining module, attribute, span name, attribute extractor or None)
TARGETS = [
    ("wavetrains.mathieu", "solve_classical", "mathieu.solve_classical", _steps_of_result),
    ("wavetrains.mathieu", "picard_iterate", "mathieu.picard_iterate", None),
    ("wavetrains.mathieu", "polar_decompose", "mathieu.polar_decompose", None),
    ("wavetrains.mathieu", "mathieu_residual", "mathieu.residuals", None),
    ("wavetrains.mathieu", "polar_ode_residuals", "mathieu.residuals", None),
    ("wavetrains.trains", "mean_energy", "trains.mean_energy", _grid_count("grid")),
    ("wavetrains.trains", "hermite_scaled", "trains.hermite", None),
    ("wavetrains.trains", "hermite_table", "trains.hermite", None),
    ("wavetrains.trains", "psi_on_grid", "trains.psi_on_grid", _grid_count("grid")),
    ("wavetrains.trains", "verify_eq4", "trains.verify_eq4", None),
    ("wavetrains.trains", "auto_space_grid", "trains.space_grid", _result_count),
    ("wavetrains.splitstep", "split_step_evolve", "splitstep.evolve", _propagation),
    ("wavetrains.numerics", "cumulative_simpson", "numerics.cumulative_simpson", None),
    ("wavetrains.numerics", "central_diff", "numerics.central_diff", None),
    ("wavetrains.config", "render_csv", "config.render", _result_bytes),
    ("wavetrains.config", "render_json", "config.render", _result_bytes),
    ("wavetrains.cli", "resolve_config", "config.resolve", None),
    ("wavetrains.cli", "run_classical", "cli.command", None),
    ("wavetrains.cli", "run_snapshot", "cli.command", None),
    ("wavetrains.cli", "run_series", "cli.command", None),
    ("wavetrains.cli", "run_verify", "cli.command", None),
    ("wavetrains.cli", "run_oracle_compare", "cli.command", None),
]


class Tracer:
    """Records nested spans of one thread in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extract=None):
        """Wrapper of ``fn`` that records a span per call; ``extract``
        maps (bound arguments, result) to the span's attributes."""
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def call_cost_s(reps: int = 5000) -> list[float]:
    """Seconds a traced call adds to a bare call, without and with an
    attribute extractor: the median over batches timed in this process."""
    def bare(x):
        return x

    probe = Tracer()
    plain = probe.wrap("probe", bare)
    extracted = probe.wrap("probe", bare, lambda args, result: {})

    def per_call(fn):
        start = time.perf_counter()
        for i in range(reps):
            fn(i)
        probe.spans.clear()
        return (time.perf_counter() - start) / reps

    costs = []
    for _ in range(7):
        base = per_call(bare)
        costs.append((per_call(plain) - base, per_call(extracted) - base))
    return [statistics.median(c) for c in zip(*costs)]


def _points_attrs(args, result):
    grid = args["self"]
    return {"grid": [grid.start, grid.step, grid.count]}


def instrument(tracer: Tracer):
    """Patch every target in every loaded ``wavetrains`` module; returns a
    function that restores the originals."""
    undo = []
    for module_name, attr, span_name, extract in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(span_name, original, extract)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "wavetrains" and not mod_name.startswith("wavetrains."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    undo.append((module, name, original))
    grid_cls = importlib.import_module("wavetrains.numerics").UniformGrid
    original_points = grid_cls.points
    grid_cls.points = tracer.wrap("numerics.grid_points", original_points, _points_attrs)
    undo.append((grid_cls, "points", original_points))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda j: spans[j][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("mathieu.solve_classical.calls", "count", "lower"),
    ("mathieu.solve_classical.self_s", "s", "lower"),
    ("mathieu.rk4.steps", "count", "lower"),
    ("mathieu.rk4.us_per_step", "us", "lower"),
    ("mathieu.picard_iterate.self_s", "s", "lower"),
    ("mathieu.polar_decompose.self_s", "s", "lower"),
    ("mathieu.residuals.self_s", "s", "lower"),
    ("trains.mean_energy.calls", "count", "lower"),
    ("trains.mean_energy.self_s", "s", "lower"),
    ("trains.mean_energy.points", "count", "lower"),
    ("trains.mean_energy.ns_per_point", "ns", "lower"),
    ("trains.hermite.self_s", "s", "lower"),
    ("trains.psi_on_grid.self_s", "s", "lower"),
    ("trains.psi_on_grid.points", "count", "lower"),
    ("trains.verify_eq4.self_s", "s", "lower"),
    ("trains.space_grid.points", "count", "lower"),
    ("splitstep.evolve.self_s", "s", "lower"),
    ("splitstep.steps", "count", "lower"),
    ("splitstep.grid_points", "count", "lower"),
    ("splitstep.us_per_step", "us", "lower"),
    ("splitstep.fft_pair_us", "us", "lower"),
    ("splitstep.step_over_fft", "ratio", "lower"),
    ("numerics.grid_points.calls", "count", "lower"),
    ("numerics.grid_points.self_s", "s", "lower"),
    ("numerics.grid_points.repeat_ratio", "ratio", "lower"),
    ("numerics.cumulative_simpson.self_s", "s", "lower"),
    ("numerics.central_diff.self_s", "s", "lower"),
    ("config.render.self_s", "s", "lower"),
    ("config.render.bytes", "bytes", "lower"),
    ("config.render.mb_per_s", "MB/s", "higher"),
    ("config.resolve.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.warnings", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def propagation_sizes(spans) -> set[int]:
    """Grid sizes the split-step propagator ran on."""
    return {s[4]["points"] for s in spans if s[0] == "splitstep.evolve"}


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traces`` holds one ``{"spans", "warnings", "call_cost_s",
    "fft_pair_us"}`` record per job; ``call_cost_s`` is the job's
    ``call_cost_s()`` pair and ``fft_pair_us`` maps each of the job's
    ``propagation_sizes`` to a bare FFT pair timed right after the job.
    ``trace.overhead_s`` is each span's call cost (with or without an
    extractor) summed over the pass.
    Times are self times summed over the pass, except
    ``trains.mean_energy.ns_per_point``, which divides the inclusive
    mean-energy time by the points it integrated.  Sizes of one call
    (``trains.space_grid.points``, ``splitstep.grid_points``) are the
    largest in the pass; ``splitstep.fft_pair_us`` is taken at the grid
    with the most propagation work, and ``splitstep.step_over_fft`` weighs
    each propagation's steps by the FFT pair at its own grid size.
    """
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    summed: dict[tuple[str, str], float] = defaultdict(float)
    largest: dict[str, int] = defaultdict(int)
    work_by_size: dict[int, float] = defaultdict(float)
    floors: dict[int, list[float]] = defaultdict(list)
    fft_floor = 0.0
    distinct_grids = 0
    warnings = 0
    overhead_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        warnings += trace["warnings"]
        plain_cost, extract_cost = trace["call_cost_s"]
        overhead_s += sum(plain_cost if s[4] is None else extract_cost for s in spans)
        grids = set()
        for (name, start, end, _, attrs), self_s in zip(spans, self_times(spans)):
            calls[name] += 1
            own[name] += self_s
            inclusive[name] += end - start
            attrs = attrs or {}
            if name == "numerics.grid_points":
                grids.add(tuple(attrs["grid"]))
                continue
            for key in ("steps", "points", "bytes"):
                summed[name, key] += attrs.get(key, 0)
            largest[name] = max(largest[name], attrs.get("points", 0))
            if name == "splitstep.evolve":
                work_by_size[attrs["points"]] += attrs["steps"]
                fft_floor += attrs["steps"] * trace["fft_pair_us"][str(attrs["points"])]
        distinct_grids += len(grids)
        for points, us in trace["fft_pair_us"].items():
            floors[int(points)].append(us)

    dominant = max(work_by_size, key=lambda p: work_by_size[p] * p, default=None)
    rk4_steps = summed["mathieu.solve_classical", "steps"]
    energy_points = summed["trains.mean_energy", "points"]
    prop_steps = summed["splitstep.evolve", "steps"]
    render_bytes = summed["config.render", "bytes"]
    values = {
        "mathieu.solve_classical.calls": calls["mathieu.solve_classical"],
        "mathieu.solve_classical.self_s": own["mathieu.solve_classical"],
        "mathieu.rk4.steps": rk4_steps,
        "mathieu.rk4.us_per_step": 1e6 * _ratio(own["mathieu.solve_classical"], rk4_steps),
        "mathieu.picard_iterate.self_s": own["mathieu.picard_iterate"],
        "mathieu.polar_decompose.self_s": own["mathieu.polar_decompose"],
        "mathieu.residuals.self_s": own["mathieu.residuals"],
        "trains.mean_energy.calls": calls["trains.mean_energy"],
        "trains.mean_energy.self_s": own["trains.mean_energy"],
        "trains.mean_energy.points": energy_points,
        "trains.mean_energy.ns_per_point": 1e9 * _ratio(inclusive["trains.mean_energy"],
                                                        energy_points),
        "trains.hermite.self_s": own["trains.hermite"],
        "trains.psi_on_grid.self_s": own["trains.psi_on_grid"],
        "trains.psi_on_grid.points": summed["trains.psi_on_grid", "points"],
        "trains.verify_eq4.self_s": own["trains.verify_eq4"],
        "trains.space_grid.points": largest["trains.space_grid"],
        "splitstep.evolve.self_s": own["splitstep.evolve"],
        "splitstep.steps": prop_steps,
        "splitstep.grid_points": largest["splitstep.evolve"],
        "splitstep.us_per_step": 1e6 * _ratio(own["splitstep.evolve"], prop_steps),
        "splitstep.fft_pair_us": statistics.median(floors[dominant] or [0.0]),
        "splitstep.step_over_fft": _ratio(1e6 * own["splitstep.evolve"], fft_floor),
        "numerics.grid_points.calls": calls["numerics.grid_points"],
        "numerics.grid_points.self_s": own["numerics.grid_points"],
        "numerics.grid_points.repeat_ratio": _ratio(calls["numerics.grid_points"],
                                                    distinct_grids),
        "numerics.cumulative_simpson.self_s": own["numerics.cumulative_simpson"],
        "numerics.central_diff.self_s": own["numerics.central_diff"],
        "config.render.self_s": own["config.render"],
        "config.render.bytes": render_bytes,
        "config.render.mb_per_s": 1e-6 * _ratio(render_bytes, own["config.render"]),
        "config.resolve.self_s": own["config.resolve"],
        "cli.command.self_s": own["cli.command"],
        "cli.warnings": warnings,
        "trace.overhead_s": overhead_s,
    }
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
