"""wavetrains benchmark: the real CLI as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the CLI runs from ``src`` through
PYTHONPATH.  Jobs run one after another, each in a fresh interpreter that
writes through ``--out`` into a scratch directory inside the checkout, so
every job pays interpreter start, imports and cold caches as a CLI user
does.  A small launcher process (``launch.py``) spawns and times them.
Each output is checked by invariant (``checks.py``).

``--trace 0`` runs as many passes over the workload's jobs as fit in
``--seconds`` (at least one) and reports the end-to-end metrics: ``wall_s`` (per job the median
wall time from spawn to exit over the passes, summed over the pass),
``setup_s`` (median wall time of a fresh ``import wavetrains.cli``, sampled
before, between and after the jobs) and
``peak_rss_mb`` (largest per-job peak RSS from ``os.wait4``).  The error
rate is ``failed / attempted`` of the result line.

``--trace 1`` runs one untraced and one traced pass of the same jobs and
reports the per-layer metrics of ``tracer.PER_LAYER``; it also checks that
both passes wrote identical bytes, as the CLI promises for one config.

``--workload all`` runs every workload both ways and prints each metric by
name with its unit.  The last line of standard output of a completed run
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; without the program's sources the run exits 2 and prints none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import PER_LAYER, layer_metrics, propagation_sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
RUN_BUDGET_S = 165.0
SETUP_SAMPLES = 24  # per run: a third before the passes, a third between jobs, the rest after
SETUP_PER_JOB = 2
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class JobResult:
    key: str
    wall_s: float
    rss_mb: float
    problem: str | None
    digest: str
    trace: dict | None = None


class Launcher:
    """A ``launch.py`` process that spawns every job of a run, so that no
    job's peak RSS includes this process's (see ``launch.py``)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], stderr_path: Path,
            timeout: float) -> tuple[float, int, float]:
        """Run ``argv`` to completion: (wall s, exit status, peak RSS MB)."""
        request = {"argv": argv, "stderr": str(stderr_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        result = json.loads(reply)
        return result["wall_s"], result["status"], result["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGINT)  # it kills its job, then exits
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, scratch: Path, deadline: float,
                  samples: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and exit."""
    argv = [sys.executable, "-c", "import wavetrains.cli"]
    times = []
    for _ in range(samples):
        wall, status, _ = launcher.run(argv, scratch / "setup.err",
                                       deadline - time.perf_counter())
        if status != 0:
            raise RuntimeError("import wavetrains.cli failed: "
                               + (scratch / "setup.err").read_text(errors="replace"))
        times.append(wall)
    return times


def run_pass(launcher: Launcher, jobs, traced: bool, scratch: Path,
             deadline: float, after_job=None) -> list[JobResult]:
    """One pass over ``jobs`` in order, each in a fresh process; the
    timing covers spawn to exit and the checks run afterwards.  ``after_job``,
    if given, is called once each job has ended."""
    outputs = scratch / "out"
    outputs.mkdir(exist_ok=True)
    spans_path = scratch / "spans.json"
    parsed: dict = {}
    results = []
    for job in jobs:
        name = job.key.replace("/", "-")
        out = outputs / (name + (".json" if job.command == "verify" else ".csv"))
        cli_args = [*job.argv, "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_job.py"), str(spans_path), "--",
                    *cli_args]
        else:
            argv = [sys.executable, "-m", "wavetrains.cli", *cli_args]
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            results.append(JobResult(job.key, 0.0, 0.0, "run time budget exhausted", ""))
            continue
        wall, status, rss = launcher.run(argv, scratch / f"{name}.err", remaining)
        data = out.read_bytes() if out.exists() else b""
        problem = checks.check(job, status, data, parsed)
        trace = None
        if traced and status == 0:
            trace = json.loads(spans_path.read_text())
            spans_path.unlink()
            # the floor is timed next to the job, in the same phase of a
            # shared machine's load (JSON keys, as the spans file has them)
            trace["fft_pair_us"] = {str(points): fft_pair_us(points)
                                    for points in propagation_sizes(trace["spans"])}
        results.append(JobResult(job.key, wall, rss, problem,
                                 hashlib.sha256(data).hexdigest(), trace))
        out.unlink(missing_ok=True)
        if after_job is not None:
            after_job()
    return results


def fft_pair_us(points: int) -> float:
    """Median time of a bare np.fft.fft / np.fft.ifft pair on a complex
    array of ``points`` samples, the floor under one split-step step."""
    rng = np.random.default_rng(points)
    x = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    reps = max(8, int(2e7 / (points * np.log2(points))))
    batches = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            np.fft.ifft(np.fft.fft(x))
        batches.append((time.perf_counter() - start) / reps)
    return 1e6 * statistics.median(batches)


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def run_record(workload: str, seed: int, trace: str) -> dict:
    """Machine and software facts of this run, recorded as found."""
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "why": workloads.WHY.get(workload),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _measure(launcher: Launcher, workload: str, seed: int, seconds: float, trace: bool,
             scratch: Path, deadline: float):
    """(metrics, units, job results) of one run."""
    jobs = workloads.build(workload, seed, scratch)
    if trace:
        plain = run_pass(launcher, jobs, False, scratch, deadline)
        traced = run_pass(launcher, jobs, True, scratch, deadline)
        for a, b in zip(plain, traced):
            if b.problem is None and a.problem is None and a.digest != b.digest:
                b.problem = "output bytes differ between two runs of the same seed"
        metrics = layer_metrics([r.trace for r in traced if r.trace is not None])
        return metrics, {name: unit for name, unit, _ in PER_LAYER}, plain + traced

    # the first start writes any missing bytecode cache and is dropped; the
    # samples are spread over the run, so they see the phases of a shared
    # machine's load that the jobs see
    setup = measure_setup(launcher, scratch, deadline, SETUP_SAMPLES // 3 + 1)[1:]

    def sample_setup_between_jobs():
        wanted = min(SETUP_PER_JOB, 2 * SETUP_SAMPLES // 3 - len(setup))
        if wanted > 0:
            setup.extend(measure_setup(launcher, scratch, deadline, wanted))

    passes = []
    loop_start = time.perf_counter()
    while True:
        passes.append(run_pass(launcher, jobs, False, scratch, deadline,
                               sample_setup_between_jobs))
        now = time.perf_counter()
        per_pass = (now - loop_start) / len(passes)
        # at least one pass; another only if it should end in time
        if now + per_pass > min(loop_start + seconds, deadline - 0.5 * per_pass):
            break
    setup += measure_setup(launcher, scratch, deadline, SETUP_SAMPLES - len(setup))
    results = [r for p in passes for r in p]
    walls = zip(*[[r.wall_s for r in p] for p in passes])
    print(f"{workload:<20} {len(passes)} passes of {len(jobs)} jobs, pass wall s: "
          + " ".join(f"{sum(r.wall_s for r in p):.3f}" for p in passes))
    metrics = {
        "wall_s": sum(statistics.median(w) for w in walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    return metrics, dict(END_TO_END), results


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object of the last line."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        with Launcher() as launcher:
            metrics, units, results = _measure(launcher, workload, seed, seconds, trace,
                                               scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # still holds another run's directory
    failed = [r for r in results if r.problem is not None]
    for r in failed:
        print(f"FAILED {workload} {r.key}: {r.problem}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _print_metrics(workload: str, result: dict):
    for name, metric in result["metrics"].items():
        print(f"{workload:<20} {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{workload:<20} {'error_rate':<38} "
          f"{result['failed'] / max(result['attempted'], 1):>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WHY)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "wavetrains" / "cli.py").is_file():
        print(f"error: no wavetrains sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WHY:
        parser.error(f"unknown workload {args.workload!r}")

    if args.workload != "all":
        print("record " + json.dumps(run_record(args.workload, args.seed, str(args.trace))))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0

    print("record " + json.dumps(run_record("all", args.seed, "0 and 1")))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WHY:
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace)
            _print_metrics(workload, result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
