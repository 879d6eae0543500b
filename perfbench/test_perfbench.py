"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer, call_cost_s, instrument, layer_metrics, self_times
from workloads import Job

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------------ tracer

def test_self_times_on_nested_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] > b1 [6,7], b2 [6.5,8]
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a1", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["b1", 6.0, 7.0, 3, None],
        ["b2", 6.5, 8.0, 3, None],
    ]
    # b's children overlap on [6.5, 7] and cover [6, 8] once
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_tracer_records_parents_and_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda n: n * 2, lambda args, result: {"points": result})
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"points": 6}),
                     ("inner", 0, {"points": 8})]
    # outer [0,5], inner [1,2] and [3,4]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_layer_metrics_weigh_each_propagation_by_its_own_floor():
    # job 1: 100 steps on 1024 points (floor 10 us) under a command span;
    # job 2: 80 steps on 2048 points (floor 30 us), one warning
    first = {"spans": [["cli.command", 0.0, 1.0, -1, None],
                       ["splitstep.evolve", 0.1, 0.6, 0, {"steps": 100, "points": 1024}]],
             "warnings": 0, "call_cost_s": [0.01, 0.1], "fft_pair_us": {"1024": 10.0}}
    second = {"spans": [["splitstep.evolve", 0.0, 1.0, -1, {"steps": 80, "points": 2048}]],
              "warnings": 1, "call_cost_s": [0.02, 0.2], "fft_pair_us": {"2048": 30.0}}
    m = layer_metrics([first, second])
    assert m["splitstep.steps"] == 180 and m["splitstep.grid_points"] == 2048
    assert m["splitstep.evolve.self_s"] == pytest.approx(1.5)
    assert m["splitstep.us_per_step"] == pytest.approx(1.5e6 / 180)
    assert m["splitstep.fft_pair_us"] == 30.0  # 80 x 2048 outweighs 100 x 1024
    assert m["splitstep.step_over_fft"] == pytest.approx(1.5e6 / (100 * 10 + 80 * 30))
    assert m["cli.command.self_s"] == pytest.approx(0.5)
    assert m["cli.warnings"] == 1
    # one plain and one extracting span in job 1, one extracting span in job 2
    assert m["trace.overhead_s"] == pytest.approx(0.01 + 0.1 + 0.2)


def test_layer_metrics_without_propagation_report_no_fft_floor():
    job = {"spans": [["cli.command", 0.0, 1.0, -1, None]], "warnings": 0,
           "call_cost_s": [1e-6, 2e-6], "fft_pair_us": {}}
    m = layer_metrics([job])
    assert m["splitstep.fft_pair_us"] == 0.0 and m["splitstep.step_over_fft"] == 0.0


def test_call_cost_is_positive_and_extraction_costs_more():
    plain, extracted = call_cost_s(reps=2000)
    assert 0 < plain < extracted


def test_instrument_reaches_names_imported_into_cli(tmp_path):
    from wavetrains import cli, mathieu, trains
    original = mathieu.solve_classical
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert cli.solve_classical is not original
        assert cli.solve_classical is mathieu.solve_classical
        status = cli.main(["snapshot", "--preset", "static", "--times", "0,0.5",
                           "--grid-points", "256", "--out", str(tmp_path / "s.csv")])
    finally:
        restore()
    assert status == 0
    assert cli.solve_classical is original and mathieu.solve_classical is original
    assert trains.UniformGrid.points.__name__ == "points"
    names = [s[0] for s in tracer.spans]
    for name in ("config.resolve", "cli.command", "mathieu.solve_classical",
                 "trains.space_grid", "trains.psi_on_grid", "numerics.grid_points",
                 "config.render"):
        assert name in names, name
    # trains calls hermite_scaled through its own globals, under psi_on_grid
    hermite = [s for s in tracer.spans if s[0] == "trains.hermite"]
    assert hermite and {tracer.spans[s[3]][0] for s in hermite} >= {"trains.psi_on_grid"}


# ------------------------------------------------------------------ checks

def _run(tmp_path, name: str, argv: list[str]) -> bytes:
    from wavetrains import cli
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) in (0, 1)
    return out.read_bytes()


def _set_meta(data: bytes, key: str, value: str) -> bytes:
    edited, count = re.subn(rb"^# " + re.escape(key.encode()) + rb" = .*$",
                            f"# {key} = {value}".encode(), data, flags=re.M)
    assert count == 1
    return edited


def _scale_cell(data: bytes, column: str, factor: float, row: int = 2) -> bytes:
    lines = data.split(b"\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    col = lines[header].decode().split(",").index(column)
    cells = lines[header + 1 + row].split(b",")
    cells[col] = repr(float(cells[col]) * factor).encode()
    lines[header + 1 + row] = b",".join(cells)
    return b"\n".join(lines)


def _rejects(job, data, earlier=None) -> bool:
    return checks.check(job, 0, data, dict(earlier or {})) is not None


def test_verify_check_rejects_corruption(tmp_path):
    argv = ["verify", "--preset", "static", "--t-final", "0.5pi"]
    job = Job("s/verify", tuple(argv), {})
    data = _run(tmp_path, "v.json", argv)
    assert checks.check(job, 0, data, {}) is None
    assert checks.check(job, 1, data, {}) is not None
    report = json.loads(data)
    for corrupt in ("passed", "one-failed", "dropped"):
        bad = json.loads(data)
        if corrupt == "passed":
            bad["passed"] = False
        elif corrupt == "one-failed":
            bad["checks"][3]["passed"] = False
        else:
            bad["checks"] = bad["checks"][1:]
        assert _rejects(job, json.dumps(bad).encode()), corrupt
    assert len(report["checks"]) == 15


def test_oracle_check_rejects_corruption(tmp_path):
    argv = ["oracle-compare", "--preset", "static", "--times", "0.25pi,0.5pi"]
    job = Job("s/oracle-compare", tuple(argv),
              {"times": "0.25pi,0.5pi", "tolerance": 1e-3})
    data = _run(tmp_path, "o.csv", argv)
    assert checks.check(job, 0, data, {}) is None
    assert _rejects(job, _set_meta(data, "propagation.max_distance", "0.002"))
    assert _rejects(job, _scale_cell(data, "density_distance", 1e9, row=0))


def test_snapshot_check_rejects_corruption(tmp_path):
    argv = ["snapshot", "--preset", "static", "--n", "3", "--times", "0,0.5pi,2pi"]
    job = Job("s/snapshot", tuple(argv), {"n": 3, "times": "0,0.5pi,2pi"})
    data = _run(tmp_path, "s.csv", argv)
    assert checks.check(job, 0, data, {}) is None
    assert _rejects(job, _set_meta(data, "snapshot.1.nodes", "2"))
    assert _rejects(job, _set_meta(data, "snapshot.2.maxima", "3"))
    assert _rejects(job, _set_meta(data, "snapshot.0.norm", "0.99"))
    assert _rejects(job, _set_meta(data, "snapshot.0.norm", "nan"))
    assert _rejects(job, data[:data.rindex(b"\n", 0, len(data) - 1) + 1])


def test_series_check_rejects_corruption(tmp_path):
    common = ["--preset", "fig2-soliton", "--n", "5", "--b0", "-9.95",
              "--t-final", "0.5pi", "--samples", "33"]
    classical_job = Job("g/classical", ("classical", *common), {})
    series_job = Job("g/series", ("series", *common),
                     {"n": 5, "b0": -9.95, "classical": "g/classical"})
    classical = _run(tmp_path, "c.csv", ["classical", *common])
    series = _run(tmp_path, "e.csv", ["series", *common])
    earlier: dict = {}
    assert checks.check(classical_job, 0, classical, earlier) is None
    assert checks.check(series_job, 0, series, earlier) is None
    assert _rejects(series_job, series)  # no classical columns to check against
    assert _rejects(series_job, _scale_cell(series, "energy", 1 + 1e-6), earlier)
    assert _rejects(series_job, _scale_cell(series, "xc", 1 + 1e-9), earlier)
    assert _rejects(classical_job, _scale_cell(classical, "rho", 1 + 1e-9))


# ------------------------------------------------------------------ harness

def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]


def test_workload_jobs_follow_the_seed(tmp_path):
    for name in workloads.WHY:
        first = workloads.build(name, 7, tmp_path)
        assert [j.argv for j in first] == [j.argv for j in workloads.build(name, 7, tmp_path)]
    draws = {workloads.build("soliton-sweep", seed, tmp_path)[0].argv for seed in range(8)}
    assert len(draws) > 1


def test_job_peak_rss_excludes_the_benchmark_process(tmp_path):
    # a child's ru_maxrss starts from its spawner's high-water mark, so a
    # job spawned from this (grown) process would read at least 100 MB
    ballast = bytearray(100 * 2**20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    with run.Launcher() as launcher:
        wall, status, rss = launcher.run([sys.executable, "-c", "pass"],
                                         tmp_path / "err", 60.0)
    assert status == 0 and wall > 0
    assert rss < 50, rss
    del ballast


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "soliton-sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
