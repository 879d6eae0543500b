"""Output checks by invariant, never by bytes.

A valid optimisation may reorder floating-point operations, so each check
tests a property the output must have whatever the rounding: the verify
battery passed with all its checks, the propagation stayed within its
tolerance, every snapshot has n nodes and n + 1 maxima at unit norm, and
the series columns match the closed forms evaluated on the same seed's
``classical`` columns.  ``check`` returns None when the output passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import json

import numpy as np

VERIFY_CHECKS = frozenset(
    ["first-integral-drift", "mathieu-residual", "polar-theta-residual",
     "polar-rho-residual", "picard-vs-rk4", "normalization", "node-count",
     "orthogonality", "energy-affinity", "pde-density-distance"]
    + [f"coeff-{key}-residual" for key in "cbefa"])

NORM_TOLERANCE = 1e-6
SERIES_TOLERANCE = 1e-8


class Csv:
    """Header metadata, column names and (optionally) the numeric rows."""

    def __init__(self, data: bytes, rows: bool = True):
        meta = {}
        pos = 0
        while data.startswith(b"#", pos):
            end = data.index(b"\n", pos)
            key, _, value = data[pos + 1:end].decode().partition("=")
            meta[key.strip()] = value.strip()
            pos = end + 1
        end = data.index(b"\n", pos)
        self.meta = meta
        self.columns = data[pos:end].decode().split(",")
        body = data[end + 1:]
        self.row_count = body.count(b"\n")
        self.rows = None
        if rows:
            self.rows = np.array([[float(v) for v in line.split(b",")]
                                  for line in body.splitlines()], dtype=float)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _classical(out: Csv, expect, earlier) -> str | None:
    if not np.all(np.isfinite(out.rows)):
        return "non-finite value in classical columns"
    rho = np.hypot(out.column("phi1"), out.column("phi2"))
    if not np.max(np.abs(rho - out.column("rho")) / out.column("rho")) <= 1e-12:
        return "rho differs from hypot(phi1, phi2)"
    if not np.max(np.abs(out.column("c0_residual"))) <= 1e-6:
        return "first integral drifts by more than 1e-6"
    return None


def _series(out: Csv, expect, earlier) -> str | None:
    classical = earlier.get(expect["classical"])
    if classical is None:
        return "no classical output of the same seed to check against"
    if out.meta["derived.c0"] != classical.meta["derived.c0"]:
        return "c0 differs from the classical run"
    if not np.array_equal(out.column("t"), classical.column("t")):
        return "sample times differ from the classical run"
    n, b0 = expect["n"], expect["b0"]
    c0 = float(classical.meta["derived.c0"])
    u2, v = float(out.meta["params.u2"]), float(out.meta["params.v"])
    t = classical.column("t")
    rho, theta = classical.column("rho"), classical.column("theta")
    drho, dtheta = classical.column("drho"), classical.column("dtheta")
    xc = (b0 / c0) * classical.column("phi1")
    if not np.max(np.abs(out.column("xc") - xc)) <= 1e-12 * max(1.0, np.max(np.abs(xc))):
        return "xc differs from (b0/c0) phi1"
    # exact moments <x> = x_c and <x^2> = rho^2 (n + 1/2)/c0 + x_c^2
    k = u2 + v * np.cos(2.0 * t)
    x2 = rho**2 * (n + 0.5) / c0 + xc**2
    quad = 0.5 * (dtheta**2 - k) - 0.5 * drho**2 / rho**2
    lin = b0 * (dtheta * np.cos(theta) * rho - drho * np.sin(theta)) / rho**2
    const = (b0**2 / (2.0 * c0)) * dtheta * np.cos(2.0 * theta) - (0.5 + n) * dtheta
    energy = -(quad * x2 - lin * xc + const)
    err = np.abs(out.column("energy") - energy) / np.maximum(1.0, np.abs(energy))
    if not np.max(err) <= SERIES_TOLERANCE:
        return f"energy differs from the exact-moment formula by {np.max(err):.3g}"
    return None


def _snapshot(out: Csv, expect, earlier) -> str | None:
    n = expect["n"]
    count = len(expect["times"].split(","))
    if out.row_count != count * int(out.meta["grid.count"]):
        return f"{out.row_count} rows for {count} snapshots of {out.meta['grid.count']} points"
    for j in range(count):
        norm = float(out.meta[f"snapshot.{j}.norm"])
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            return f"snapshot {j} norm {norm!r}"
        if int(out.meta[f"snapshot.{j}.nodes"]) != n:
            return f"snapshot {j} has {out.meta[f'snapshot.{j}.nodes']} nodes, want {n}"
        if int(out.meta[f"snapshot.{j}.maxima"]) != n + 1:
            return f"snapshot {j} has {out.meta[f'snapshot.{j}.maxima']} maxima, want {n + 1}"
    return None


def _oracle(out: Csv, expect, earlier) -> str | None:
    worst = float(out.meta["propagation.max_distance"])
    if not worst <= expect["tolerance"]:
        return f"max density distance {worst!r} above {expect['tolerance']!r}"
    if len(out.rows) != len(expect["times"].split(",")):
        return "one row per requested time expected"
    if not np.max(out.column("density_distance")) <= worst:
        return "a row exceeds the reported max distance"
    return None


def _verify(report: dict) -> str | None:
    names = {c["name"] for c in report.get("checks", ())}
    if names != VERIFY_CHECKS or len(report["checks"]) != len(VERIFY_CHECKS):
        return f"checks present {sorted(names)}"
    if report.get("passed") is not True:
        return "battery did not pass"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        return f"failed checks {failed}"
    return None


CSV_CHECKS = {"classical": _classical, "series": _series, "snapshot": _snapshot,
              "oracle-compare": _oracle}


def check(job, status: int, data: bytes, earlier: dict) -> str | None:
    """Check one job's output.  Parsed CSVs are kept in ``earlier`` under
    the job's key, so later jobs of the same pass can be checked against
    them."""
    if status != 0:
        return f"exit status {status}"
    try:
        if job.command == "verify":
            return _verify(json.loads(data))
        out = Csv(data, rows=job.command != "snapshot")
        earlier[job.key] = out
        return CSV_CHECKS[job.command](out, job.expect, earlier)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed {job.command} output: {type(exc).__name__}: {exc}"
