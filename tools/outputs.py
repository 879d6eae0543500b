"""Compare the CLI's outputs between two source trees.

    python3 tools/outputs.py TREE_A TREE_B

Runs one fixed list of command lines (``COMMANDS``) with each tree's
``src`` on PYTHONPATH, one fresh interpreter per run, and prints one line
per command: whether stdout (by SHA-256), stderr and the exit status
match.  A command that names ``OUT`` writes through ``--out`` to one
fixed temporary path for both trees, so the ``output.path`` header
agrees, and the file's bytes (or its absence) are compared as well.
Each tree's own path is replaced by ``TREE`` in stderr before the
comparison, so warnings that name a source file compare equal when only
the checkout differs.  Where stdout differs, every numeric report or
metadata field that differs is printed with its largest absolute
deviation: verify checks by name, CSV ``# key = value`` header lines and
JSON keys by name, and table rows per column.  Exits 1 when any command
differs, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig2-soliton", "fig3-collapse", "static")
OUT = "OUT"  # replaced by the --out path shared by both trees

COMMANDS = [
    *([command, "--preset", p] for p in PRESETS
      for command in ("classical", "series", "snapshot", "verify")),
    *(["oracle-compare", "--preset", p, "--times", "0.5pi"] for p in PRESETS),
    ["classical", "--preset", "fig2-soliton", "--format", "json", "--samples", "64"],
    ["series", "--preset", "fig3-collapse", "--format", "json", "--n", "6"],
    ["snapshot", "--preset", "fig2-soliton", "--format", "json", "--times", "0,1pi"],
    ["snapshot", "--preset", "static", "--grid-points", "16", "--half-width", "6",
     "--times", "0"],
    ["verify", "--preset", "fig3-collapse", "--n", "2"],
    ["verify", "--preset", "fig3-collapse", "--n", "6", "--b0", "0.015"],
    ["verify", "--preset", "fig2-soliton", "--n", "3", "--b0", "-4"],
    ["verify", "--preset", "fig2-soliton", "--n", "10"],
    ["verify", "--preset", "static", "--grid-points", "16", "--half-width", "6"],
    ["verify", "--preset", "static", "--grid-points", "16", "--half-width", "6",
     "--center", "1000"],
    ["verify", "--preset", "static", "--grid-points", "1024", "--half-width", "-4.59"],
    ["oracle-compare", "--preset", "fig3-collapse", "--times", "0.5pi,1pi"],
    ["oracle-compare", "--preset", "static", "--times", "0.5pi", "--grid-points", "256",
     "--half-width", "9", "--center", "0.5"],
    ["oracle-compare", "--preset", "static", "--times", "0.5pi", "--grid-points", "8192",
     "--half-width", "9", "--center", "0.5"],
    ["snapshot", "--preset", "fig2-soliton", "--half-width", "-2.39", "--grid-points", "8",
     "--times", "0"],
    ["classical", "--preset", "fig2-soliton", "--half-width", "-2", "--grid-points", "8"],
    ["series", "--preset", "fig2-soliton", "--t-final", "1.7e308"],
    ["series", "--preset", "static", "--rk4-step", "5e-324"],
    ["verify", "--preset", "fig3-collapse", "--n", "200"],
    ["snapshot", "--preset", "static", "--b0", "1e150", "--times", "0"],
    ["snapshot", "--preset", "static", "--grid-points", "2", "--n", "200", "--times", "0"],
    ["snapshot", "--preset", "fig3-collapse", "--times", "0,1pi,2pi", "--out", OUT],
    ["snapshot", "--preset", "fig2-soliton", "--format", "json", "--out", OUT],
    ["classical", "--preset", "static", "--samples", "4097", "--out", OUT],
    ["verify", "--preset", "fig2-soliton", "--out", OUT],
    ["snapshot", "--preset", "static", "--grid-points", "2", "--n", "200", "--times", "0",
     "--out", OUT],
]


def run(tree: Path, argv: list[str], out: Path) -> tuple[bytes, bytes | None, str, int]:
    """stdout, the --out file's bytes (None when the command wrote none),
    stderr and exit status of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [str(out) if arg == OUT else arg for arg in argv]
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "wavetrains.cli", *argv],
                          capture_output=True, env=env, cwd=tree)
    stderr = proc.stderr.decode("utf-8", "replace").replace(str(tree), "TREE")
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return proc.stdout, written, stderr, proc.returncode


def fields(stdout: bytes) -> dict[str, list[float]]:
    """Numeric fields of one output by name; a table column is one field
    holding every row's value."""
    text = stdout.decode("utf-8", "replace")
    out: dict[str, list[float]] = {}

    def add(key, value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.setdefault(key, []).append(float(value))
        elif isinstance(value, dict):
            for k, v in value.items():
                add(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list):
            for item in value:
                add(key, item)

    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        for check in doc.pop("checks", []):
            add(f"checks.{check['name']}", check["value"])
        columns, rows = doc.pop("columns", None), doc.pop("rows", [])
        add("", doc)
        for row in rows:
            for name, value in zip(columns, row):
                add(f"rows.{name}", value)
        return out
    columns = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            try:
                add(key, float(value))
            except ValueError:
                pass
        elif columns is None:
            columns = line.split(",")
        else:
            for name, value in zip(columns, line.split(",")):
                add(f"rows.{name}", float(value))
    return out


def deviations(a: bytes, b: bytes) -> list[str]:
    if not (a and b):
        return [f"    output empty on {'A' if not a else 'B'}"]
    try:
        fa, fb = fields(a), fields(b)
    except (ValueError, KeyError) as exc:
        return [f"    (not parsed: {exc})"]
    lines = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        if va is None or vb is None or len(va) != len(vb):
            lines.append(f"    {key}: present or sized differently")
        elif va != vb:
            worst = max(abs(x - y) for x, y in zip(va, vb))
            lines.append(f"    {key}: max |diff| {worst:.3g}")
    return lines


def compare(command: list[str], trees: list[Path], out: Path) -> bool:
    """Run one command on both trees, print its line; True when all agree."""
    (out_a, file_a, err_a, rc_a), (out_b, file_b, err_b, rc_b) = (
        run(t, command, out) for t in trees)
    checks = {"stdout": hashlib.sha256(out_a).digest() == hashlib.sha256(out_b).digest(),
              "stderr": err_a == err_b, "exit": rc_a == rc_b}
    if OUT in command:
        checks["file"] = file_a == file_b
    marks = " ".join(f"{name}={'same' if ok else 'DIFF'}" for name, ok in checks.items())
    print(f"{marks} exit {rc_a}/{rc_b}: {' '.join(command)}", flush=True)
    if not checks["stdout"]:
        print("\n".join(deviations(out_a, out_b) or ["    (no numeric field differs)"]))
    if not checks.get("file", True):
        if file_a is None or file_b is None:
            print(f"    file written on {'B' if file_a is None else 'A'} only")
        else:
            print("\n".join(deviations(file_a, file_b) or ["    (no numeric field differs)"]))
    if not checks["stderr"]:  # the first line that differs, or the last of the longer
        lines_a, lines_b = err_a.splitlines(), err_b.splitlines()
        at = next((i for i, pair in enumerate(zip(lines_a, lines_b))
                   if pair[0] != pair[1]), None)
        for label, lines in (("A", lines_a), ("B", lines_b)):
            line = lines[at] if at is not None else (lines[-1:] or ["(empty)"])[0]
            print(f"    stderr {label}: {line[:160]}")
    return all(checks.values())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(p).resolve() for p in argv]
    with tempfile.TemporaryDirectory() as scratch:
        differ = sum(not compare(command, trees, Path(scratch) / "out")
                     for command in COMMANDS)
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
