"""Command line behaviour: argument handling, deterministic output,
config files, the verify battery, and the propagation comparison."""

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import wavetrains
from wavetrains import TrainSpec, auto_space_grid, propagation_grid
from wavetrains import cli, mathieu, numerics, trains, verify
from wavetrains.cli import _auto_dt, main
from wavetrains.splitstep import aliasing_dt_bound, split_step_evolve
from wavetrains.config import (
    _CSV_BLOCK,
    MAX_N,
    PRESET_NAMES,
    RunConfig,
    csv_pieces,
    flat_items,
    from_dict,
    parse_pi_times,
    preset,
    render_csv,
    render_json,
    to_dict,
)
from wavetrains.errors import ConfigError, NormDeficitWarning, NormDrift, UnknownPreset
from wavetrains.mathieu import (mathieu_residual, polar_decompose, polar_ode_residuals,
                                solve_classical)
from wavetrains.trains import level_energies, verify_eq4

from conftest import COLLAPSE_PARAMS
from references import every, mean_energy_levels


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def meta_value(text, key):
    prefix = f"# {key} = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(key)


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return names, values


# ------------------------------------------------------------ basic wiring

def test_version_flag(capsys):
    rc, out, _ = run_cli(capsys, ["--version"])
    assert rc == 0
    assert out.strip() == "wavetrains 0.1.0"


def test_package_exports_resolve():
    namespace: dict = {}
    exec("from wavetrains import *", namespace)
    import wavetrains
    assert set(wavetrains.__all__) <= set(namespace)


def test_readme_library_sketch_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    exec(sketch.split("```", 1)[0], {})
    norm = float(capsys.readouterr().out.split()[0])
    assert abs(norm - 1.0) < 1e-6


def test_unknown_preset_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, ["classical", "--preset", "nope"])
    assert rc == 2
    assert "invalid choice" in err
    with pytest.raises(UnknownPreset) as excinfo:
        preset("nope")
    assert all(name in str(excinfo.value) for name in PRESET_NAMES)
    assert preset("fig1-rho") == preset("fig2-soliton")


def test_preset_and_config_are_exclusive(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(to_dict(RunConfig())))
    rc, _, err = run_cli(capsys, ["classical", "--preset", "static",
                                  "--config", str(path)])
    assert rc == 2
    assert "not allowed with" in err


# -------------------------------------------------------------- classical

def test_classical_csv_is_deterministic(tmp_path, capsys):
    path = tmp_path / "run.csv"
    args = ["classical", "--preset", "fig2-soliton",
            "--t-final", "2pi", "--samples", "129", "--out", str(path)]
    assert main(args) == 0
    first = path.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert path.read_bytes() == first

    text = first.decode()
    assert meta_value(text, "derived.c0") == "0.5"
    assert meta_value(text, "params.u2") == "0.25"
    assert meta_value(text, "tool.name") == "wavetrains"
    assert meta_value(text, "tool.version") == "0.1.0"

    names, rows = data_rows(text)
    assert names == ["t", "phi1", "phi2", "rho", "theta", "drho", "dtheta",
                     "c0_residual"]
    assert rows.shape == (129, 8)
    assert rows[0, 0] == 0.0
    assert abs(rows[-1, 0] - 2.0 * math.pi) < 1e-12
    assert float(np.max(np.abs(rows[:, 7]))) < 1e-8


def test_classical_json_document(capsys):
    rc, out, _ = run_cli(capsys, ["classical", "--preset", "static",
                                  "--t-final", "0.5pi", "--samples", "9",
                                  "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["columns", "config", "meta", "rows"]
    assert doc["meta"]["derived.c0"] == "1"
    assert doc["config"]["params"]["u2"] == 1.0
    assert len(doc["rows"]) == 9
    rho = [row[doc["columns"].index("rho")] for row in doc["rows"]]
    assert max(abs(r - 1.0) for r in rho) < 1e-10


def test_out_file_matches_stdout(tmp_path, capsys):
    # identical up to the self-describing output.path header line
    args = ["classical", "--preset", "static", "--t-final", "1", "--samples", "5"]
    rc, out, _ = run_cli(capsys, args)
    assert rc == 0
    path = tmp_path / "run.csv"
    assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()

    def stripped(text):
        return [ln for ln in text.splitlines()
                if not ln.startswith("# output.path")]

    assert stripped(path.read_text()) == stripped(out)


# --------------------------------------------------------------- snapshot

def test_snapshot_reports_structure_counts(capsys):
    rc, out, _ = run_cli(capsys, ["snapshot", "--preset", "static",
                                  "--times", "0,0.25pi",
                                  "--n", "3", "--b0", "0"])
    assert rc == 0
    count = int(meta_value(out, "grid.count"))
    for j, t in enumerate((0.0, 0.25 * math.pi)):
        assert float(meta_value(out, f"snapshot.{j}.t")) == pytest.approx(t)
        assert meta_value(out, f"snapshot.{j}.nodes") == "3"
        assert meta_value(out, f"snapshot.{j}.maxima") == "4"
        assert abs(float(meta_value(out, f"snapshot.{j}.xc"))) < 1e-12
        assert abs(float(meta_value(out, f"snapshot.{j}.norm")) - 1.0) < 1e-6
    names, rows = data_rows(out)
    assert names == ["t", "x", "density", "re_psi", "im_psi"]
    assert rows.shape == (2 * count, 5)
    density = rows[:count, 2]
    assert np.allclose(density, rows[:count, 3] ** 2 + rows[:count, 4] ** 2,
                       atol=1e-15)


def test_snapshot_rejects_empty_times(capsys):
    rc, _, err = run_cli(capsys, ["snapshot", "--preset", "static",
                                  "--times", ""])
    assert rc == 2
    assert "error:" in err


# ----------------------------------------------------------------- series

def test_series_static_constants(capsys):
    rc, out, _ = run_cli(capsys, ["series", "--preset", "static", "--n", "2",
                                  "--t-final", "2pi", "--samples", "33"])
    assert rc == 0
    names, rows = data_rows(out)
    assert names == ["t", "xc", "rho", "energy"]
    assert float(np.max(np.abs(rows[:, 1]))) == 0.0
    assert float(np.max(np.abs(rows[:, 2] - 1.0))) < 1e-10
    assert float(np.max(np.abs(rows[:, 3] - 2.5))) < 1e-9


def test_series_declared_c0_rescales_orbit(capsys):
    rc, out, _ = run_cli(capsys, ["series", "--preset", "fig2-soliton",
                                  "--declared-c0", "1",
                                  "--t-final", "0.5pi", "--samples", "9"])
    assert rc == 0
    _, rows = data_rows(out)
    assert abs(rows[0, 1] - (-10.0)) < 1e-9
    rc2, out2, _ = run_cli(capsys, ["series", "--preset", "fig2-soliton",
                                    "--t-final", "0.5pi", "--samples", "9"])
    assert rc2 == 0
    _, rows2 = data_rows(out2)
    assert abs(rows2[0, 1] - (-20.0)) < 1e-9


# ------------------------------------------------------------ config files

def test_config_file_roundtrip(tmp_path, capsys):
    cfg = preset("fig3-collapse")
    assert from_dict(to_dict(cfg)) == cfg
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(to_dict(cfg)))
    rc, out, _ = run_cli(capsys, ["classical", "--config", str(path),
                                  "--t-final", "0.5pi", "--samples", "5"])
    assert rc == 0
    assert float(meta_value(out, "init.a")) == 0.02
    assert float(meta_value(out, "params.v")) == 0.05


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    bad_group = tmp_path / "group.json"
    bad_group.write_text(json.dumps({"trap": {"u2": 0.25}}))
    rc, _, err = run_cli(capsys, ["classical", "--config", str(bad_group)])
    assert rc == 2 and "trap" in err

    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"params": {"u2": 0.25, "bogus": 1.0}}))
    rc, _, err = run_cli(capsys, ["classical", "--config", str(bad_key)])
    assert rc == 2 and "bogus" in err

    bad_type = tmp_path / "type.json"
    bad_type.write_text(json.dumps({"train": {"n": 2.5}}))
    rc, _, err = run_cli(capsys, ["classical", "--config", str(bad_type)])
    assert rc == 2

    rc, _, err = run_cli(capsys, ["classical", "--config",
                                  str(tmp_path / "missing.json")])
    assert rc == 2


NULLABLE = {"train.declared_c0", "space.grid_points", "space.half_width", "output.path"}
ALL_FIELDS = [f"{group}.{name}" for group, sub in to_dict(RunConfig()).items() for name in sub]
FLOAT_FIELDS = ["params.u2", "params.v", "init.a", "init.b", "init.alpha", "init.beta",
                "train.b0", "train.declared_c0", "solver.rk4_step", "time.t_final",
                "space.half_width", "space.center"]


def _config_run(tmp_path, capsys, key, value):
    group, name = key.split(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({group: {name: value}}))
    return run_cli(capsys, ["classical", "--config", str(path), "--samples", "3"])


@pytest.mark.parametrize("key", ALL_FIELDS)
def test_config_null_is_allowed_only_for_optional_fields(tmp_path, capsys, key):
    group, name = key.split(".")
    rc, out, err = _config_run(tmp_path, capsys, key, None)
    if key in NULLABLE:
        assert getattr(getattr(from_dict({group: {name: None}}), group), name) is None
        assert rc == 0 and err == ""
    else:
        assert rc == 2 and out == ""
        assert err == f"error: {key} must not be null\n"


@pytest.mark.parametrize("key", FLOAT_FIELDS + ["time.times"])
def test_config_bool_is_refused_for_float_fields(tmp_path, capsys, key):
    value = [0.0, True] if key == "time.times" else True
    rc, out, err = _config_run(tmp_path, capsys, key, value)
    assert rc == 2 and out == ""
    expected = "times must be numbers" if key == "time.times" else f"{key} must be a number"
    assert err.startswith(f"error: {expected}") and err.count("\n") == 1


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_config_string_is_refused_for_float_fields(tmp_path, capsys, key):
    rc, out, err = _config_run(tmp_path, capsys, key, "0.5")
    assert rc == 2 and out == ""
    assert err == f"error: {key} must be a number, got '0.5'\n"


def test_grid_inputs_are_never_silently_ignored(tmp_path, capsys):
    # --center alone switches the policy to explicit, which needs the box
    rc, out, err = run_cli(capsys, ["snapshot", "--preset", "static",
                                    "--center", "3", "--times", "0"])
    assert rc == 2 and out == ""
    assert err == "error: space.policy 'explicit' needs grid_points and half_width\n"
    # a half_width under the auto policy would not size anything
    rc, out, err = _config_run(tmp_path, capsys, "space.half_width", 8.0)
    assert rc == 2 and out == ""
    assert err.startswith("error: space.half_width needs space.policy 'explicit'")
    # so would a center: the auto box is placed by the packet's orbit
    rc, out, err = _config_run(tmp_path, capsys, "space.center", 3.0)
    assert rc == 2 and out == ""
    assert err.startswith("error: space.center needs space.policy 'explicit'")
    # with the full box given, the center is used
    rc, out, _ = run_cli(capsys, ["snapshot", "--preset", "static", "--times", "0",
                                  "--center", "0.5", "--half-width", "8",
                                  "--grid-points", "256"])
    assert rc == 0
    assert meta_value(out, "space.policy") == "explicit"
    assert float(meta_value(out, "grid.start")) == -7.5


# A text and the value it must leave in the field its flag's dest names;
# each differs from RunConfig() and from every preset.
OVERRIDE_VALUES = {
    "output.path": ("override.csv", "override.csv"),
    "output.format": ("json", "json"),
    "train.n": ("3", 3),
    "train.b0": ("0.75", 0.75),
    "train.declared_c0": ("2.5", 2.5),
    "solver.iterations": ("7", 7),
    "solver.rk4_step": ("0.002", 0.002),
    "space.grid_points": ("512", 512),
    "space.half_width": ("9.5", 9.5),
    "space.center": ("1.25", 1.25),
    "time.times": ("0,0.5pi", [0.0, 0.5 * math.pi]),
    "time.t_final": ("3pi", 3.0 * math.pi),
    "time.samples": ("17", 17),
}
# what an explicit-box flag needs alongside it, and the fields that then change
BOX_COMPANIONS = {
    "space.half_width": (["--grid-points", "512"], {"space.grid_points", "space.policy"}),
    "space.center": (["--grid-points", "512", "--half-width", "9.5"],
                     {"space.grid_points", "space.half_width", "space.policy"}),
}


@pytest.mark.parametrize("command", ["classical", "snapshot", "series", "verify",
                                     "oracle-compare"])
def test_each_override_flag_sets_the_field_its_dest_names(command):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0]: a.dest
             for a in commands.choices[command]._actions if "." in a.dest}
    # only the commands with a time horizon take --t-final and --samples
    expected = set(OVERRIDE_VALUES)
    if command in ("snapshot", "oracle-compare"):
        expected -= {"time.t_final", "time.samples"}
    assert sorted(flags.values()) == sorted(expected)
    default = to_dict(RunConfig())
    for flag, dest in flags.items():
        assert dest in ALL_FIELDS, f"{flag} has dest {dest!r}, which names no RunConfig field"
        text, value = OVERRIDE_VALUES[dest]
        extra, companions = BOX_COMPANIONS.get(dest, ([], set()))
        cfg = cli.resolve_config(parser.parse_args([command, flag, text] + extra))
        got = to_dict(cfg)
        group, name = dest.split(".")
        assert got[group][name] == value, flag
        changed = {f"{g}.{k}" for g, sub in got.items() for k in sub
                   if sub[k] != default[g][k]}
        assert changed == {dest} | companions, flag


# Every non-finite float input, given as a flag where one exists and
# through a config file otherwise.
NON_FINITE_INPUTS = [
    ("params.u2", {"params": {"u2": math.inf}}, []),
    ("params.v", {"params": {"v": math.nan}}, []),
    ("init.a", {"init": {"a": math.nan}}, []),
    ("init.b", {"init": {"b": math.inf}}, []),
    ("init.alpha", {"init": {"alpha": -math.inf}}, []),
    ("init.beta", {"init": {"beta": math.nan}}, []),
    ("train.b0", None, ["--b0", "nan"]),
    ("train.declared_c0", None, ["--declared-c0", "inf"]),
    ("solver.rk4_step", None, ["--rk4-step", "nan"]),
    ("time.t_final", None, ["--t-final", "inf"]),
    ("time.times", None, ["--times", "0,nan"]),
    ("space.half_width", None, ["--half-width", "inf", "--grid-points", "1024"]),
    ("space.center", None, ["--center=-inf"]),
]


@pytest.mark.parametrize("key, config, flags", NON_FINITE_INPUTS,
                         ids=[case[0] for case in NON_FINITE_INPUTS])
def test_non_finite_input_is_usage_error(tmp_path, capsys, key, config, flags):
    if config is None:
        source = ["--preset", "static"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        source = ["--config", str(path)]
    command = "snapshot" if key == "time.times" else "series"
    rc, out, err = run_cli(capsys, [command] + source + flags)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {key} must be finite")


def test_quantum_number_is_capped():
    # from_dict validates; nothing is run
    assert from_dict({"train": {"n": MAX_N}}).train.n == MAX_N
    with pytest.raises(ConfigError, match="train.n"):
        from_dict({"train": {"n": MAX_N + 1}})


def _render_csv_per_value(cfg, columns, rows, meta):
    lines = [f"# {key} = {value}" for key, value in flat_items(cfg)]
    lines += [f"# {key} = {value}" for key, value in meta]
    lines.append(",".join(columns))
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


B = _CSV_BLOCK


def _random_rows(count, width, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, width)) \
        * 10.0 ** rng.integers(-300, 300, (count, width))


def _structured_rows(case):
    """Tables whose column blocks are constant or recur, the two kinds
    ``render_csv`` formats once."""
    rows = _random_rows(3 * B, 6, 11)
    if case == "constant-blocks":
        rows[:, 0] = -0.0
        rows[:, 1] = math.nan
        rows[:, 2] = 0.0
        rows[B + 7, 2] = -0.0  # equal to 0.0 by ==, not by bits
        rows[:B, 3] = 1.0 / 3.0
        rows[B:2 * B, 3] = math.inf
        nan_bits = np.full(B, 0x7FF8000000000000, dtype=np.int64)
        nan_bits[5] += 1  # a second NaN payload
        rows[2 * B:, 4] = nan_bits.view(float)
    elif case == "recurring-aligned":
        x = rows[:B, 1].copy()
        rows[:, 0] = np.repeat([0.0, math.pi, 2.0 * math.pi], B)
        rows[:, 1] = np.tile(x, 3)
        rows[B:2 * B, 4] = x  # recurs in another column too
    elif case == "recurring-straddle":
        seg = rows[:B, 2].copy()
        rows[B // 2:B // 2 + B, 2] = seg
        rows[2 * B + B // 2:, 2] = seg[:B // 2]
        rows[B:2 * B, 3] = rows[:B, 3]
    elif case == "short-last-prefix":
        rows = np.vstack([rows, _random_rows(100, 6, 12)])
        rows[B:2 * B, 1] = rows[:B, 1]
        rows[3 * B:, 1] = rows[:100, 1]
    return rows


@pytest.mark.parametrize("case", [0, 1, 4095, 4096, 4097, "constant-blocks",
                                  "recurring-aligned", "recurring-straddle",
                                  "short-last-prefix"])
def test_render_csv_matches_per_value_format(case):
    if isinstance(case, int):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                   2.2250738585072014e-308 / 3, 0.1, -1.0 / 3.0, 7.0]
        rows = _random_rows(case, len(special), case)
        rows[:1] = special
    else:
        rows = _structured_rows(case)
    columns = [f"c{j}" for j in range(rows.shape[1])]
    meta = [("extra", "1")]
    expected = _render_csv_per_value(RunConfig(), columns, rows.tolist(), meta)
    for given in (rows, rows.tolist()):
        got = render_csv(RunConfig(), columns, given, meta=meta)
        _assert_same_text(got, expected)


def _assert_same_text(got, expected):
    # the first differing line, not pytest's quadratic diff of two
    # multi-megabyte strings
    diff = next(((i, a, b) for i, (a, b) in enumerate(zip(
        got.split("\n"), expected.split("\n"))) if a != b), None)
    assert diff is None and len(got) == len(expected), diff


def test_snapshot_csv_matches_per_value_format(monkeypatch, capsys):
    # three times on one 8192-point grid: each block's t column is
    # constant and each x block recurs, so both format-once routes run
    seen = {}

    def spy(cfg, columns, rows, meta=None):
        seen.update(cfg=cfg, columns=columns, rows=rows, meta=meta)
        return csv_pieces(cfg, columns, rows, meta=meta)

    monkeypatch.setattr(cli, "csv_pieces", spy)
    rc, out, _ = run_cli(capsys, ["snapshot", "--preset", "static",
                                  "--times", "0,0.5pi,2pi", "--grid-points", "8192",
                                  "--half-width", "10"])
    assert rc == 0
    assert seen["rows"].shape == (3 * 8192, 5)
    rows = seen["rows"][:len(seen["rows"])]
    assert np.array_equal(rows[:8192, 1], rows[2 * 8192:, 1])
    _assert_same_text(out, _render_csv_per_value(seen["cfg"], seen["columns"],
                                                 rows.tolist(), seen["meta"]))


def _snapshot_cfg(times, count, *extra):
    return cli.resolve_config(cli.build_parser().parse_args(
        ["snapshot", "--preset", "static", "--times", times, "--grid-points", str(count),
         "--half-width", "10", *extra]))


@pytest.mark.parametrize("count", [1024, 8192])
def test_snapshot_row_blocks_equal_the_whole_table(monkeypatch, count):
    # 1024-point times put several in one 4096-row block; every slice,
    # aligned or not, is bit for bit the table laid out from psi_on_grid
    # of each frame on the grid the header used
    seen, grids = {}, []

    def spy(frame, grid):
        grids.append(grid)
        return trains.psi_on_grid(frame, grid)

    monkeypatch.setattr(cli, "psi_on_grid", spy)
    monkeypatch.setattr(cli, "_render", lambda cfg, columns, rows, meta: seen.update(rows=rows))
    cli.run_snapshot(_snapshot_cfg("0,0.5pi,1pi,2pi", count))
    table, grid = seen["rows"], grids[0]
    assert len(table.frames) == len(grids) == 4 and set(grids) == {grid}
    whole = np.empty((4 * count, 5))
    for j, frame in enumerate(table.frames):
        field = trains.psi_on_grid(frame, grid)
        block = whole[j * count:(j + 1) * count]
        block[:, 0] = field.t
        block[:, 1] = grid.points()
        block[:, 2] = field.density()
        block[:, 3] = field.values.real
        block[:, 4] = field.values.imag
    assert table.shape == whole.shape and len(table) == len(whole)
    edges = [(s, s + _CSV_BLOCK) for s in range(0, len(whole), _CSV_BLOCK)]
    edges += [(0, len(whole)), (count - 3, 2 * count + 5), (7, 7), (len(whole) - 1, 10**9)]
    for s, e in edges:
        for got, want in ((table[s:e], whole[s:e]),
                          (table[s:e, :table.keyed], whole[s:e, :table.keyed])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (s, e)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_snapshot_render_evaluates_psi_once_per_point(monkeypatch, fmt):
    # the header evaluates each field once; the writer builds each block
    # once more, and the CSV pre-pass reads the t and x columns alone
    count, times = 1024, "0,0.5pi,1pi,2pi"
    rendered = cli.run_snapshot(_snapshot_cfg(times, count, "--format", fmt))
    points, psi = [], trains.psi

    def counting(frame, x):
        points.append(np.size(x))
        return psi(frame, x)

    monkeypatch.setattr(trains, "psi", counting)
    assert "".join(rendered)
    assert sum(points) == 4 * count


def test_snapshot_peak_memory_per_time():
    # each extra time keeps its frame, not its field (16 B per point); a
    # times x N x 5 float table would add 40 B per point
    count = 65536

    def peak(times):
        cfg = _snapshot_cfg(times, count)
        tracemalloc.start()
        try:
            for _ in cli.run_snapshot(cfg):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak("0,0.5pi,1pi,1.5pi,2pi") - peak("0,2pi")) / 3
    assert growth <= 4 * count


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("non_finite", [False, True], ids=["finite", "non-finite"])
def test_render_json_matches_json_dumps(count, non_finite):
    rows = _random_rows(count, 10, count)
    # the first row's edge values take the float-text route; the last
    # row's NaN and infinities send their block to json.dumps per value
    rows[:1] = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                0.1, -1.0 / 3.0, 7.0, 1e16]
    if non_finite and count:
        rows[-1, :3] = [math.nan, math.inf, -math.inf]
    columns = [f"c{j}" for j in range(rows.shape[1])]
    meta = {"extra": "1"} if non_finite else None
    doc = {"config": to_dict(RunConfig()), "columns": columns,
           "rows": [[float(v) for v in row] for row in rows]}
    if meta:
        doc["meta"] = meta
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for given in (rows, rows.tolist()):
        _assert_same_text(render_json(RunConfig(), columns, given, meta=meta), expected)


def _edge_table(count):
    """``count`` rows of random floats with NaN, infinities, -0.0 and a
    subnormal in the first row and the last."""
    rows = _random_rows(count, 6, count)
    if count:
        rows[0] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
        rows[-1, :3] = [math.inf, math.nan, -0.0]
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097])
def test_streamed_output_equals_rendered_text(tmp_path, capsys, fmt, count):
    # the command line writes the pieces as they come; the bytes it
    # writes to stdout and to --out are those of render_csv / render_json
    rows = _edge_table(count)
    columns = [f"c{j}" for j in range(rows.shape[1])]
    meta = [("extra", "1")]
    cfg = from_dict({"output": {"format": fmt}})
    render = render_json if fmt == "json" else render_csv
    expected = render(cfg, columns, rows, meta=dict(meta) if fmt == "json" else meta)
    capsys.readouterr()
    cli._emit(cli._render(cfg, columns, rows, meta), None)
    _assert_same_text(capsys.readouterr().out, expected)
    path = tmp_path / f"out.{fmt}"
    cli._emit(cli._render(cfg, columns, rows, meta), str(path))
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_streamed_piece_comes_from_a_render_call(monkeypatch, fmt):
    # one render_csv / render_json call per piece, so a wrapper of those
    # two names sees every formatted byte
    rows = _edge_table(4097)
    columns = [f"c{j}" for j in range(rows.shape[1])]
    meta = [("extra", "1")]
    cfg = from_dict({"output": {"format": fmt}})
    name = "render_json" if fmt == "json" else "render_csv"
    render = getattr(cli, name)
    returned = []

    def spy(*args, **kwargs):
        returned.append(render(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, name, spy)
    pieces = list(cli._render(cfg, columns, rows, meta))
    assert len(pieces) >= 3 and returned == pieces + [""]
    _assert_same_text("".join(pieces),
                      render(cfg, columns, rows, dict(meta) if fmt == "json" else meta))


@pytest.mark.parametrize("argv", [
    ["snapshot", "--preset", "static", "--grid-points", "2", "--n", "200", "--times", "0"],
    ["oracle-compare", "--preset", "static", "--times", "0.5pi", "--dt", "1e-7"],
], ids=["snapshot-norm", "oracle-dt"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_refused_command_leaves_out_file_alone(tmp_path, capsys, argv, existing):
    path = tmp_path / "out.csv"
    old = b"# earlier output\n1,2\n"
    if existing:
        path.write_bytes(old)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert rc == 2 and out == "" and err.startswith("error: ")
    if existing:
        assert path.read_bytes() == old
    else:
        assert not path.exists()


class _CountingSink(io.TextIOBase):
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_streamed_csv_holds_a_fraction_of_its_text(monkeypatch):
    # a 200,000 x 5 table is about 23 MB of text; joining it, as the
    # whole-text render does, needs more than twice that
    rows = _random_rows(200_000, 5, 7)
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    cfg = RunConfig()
    tracemalloc.start()
    try:
        cli._emit(cli._render(cfg, ["a", "b", "c", "d", "e"], rows, []), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 20_000_000
    assert peak < sink.chars / 4, (peak, sink.chars)


def test_reader_that_stops_early_ends_the_command_quietly():
    # ``| head``: the reader closes the pipe after one line; the command
    # exits 1 without a traceback
    src = os.path.dirname(os.path.dirname(wavetrains.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "wavetrains.cli", "snapshot",
                             "--preset", "fig2-soliton", "--times", "0,1pi"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    with proc, proc.stderr:
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_pi_unit_time_parsing():
    assert tuple(parse_pi_times("0,0.5pi,2pi")) == (0.0, 0.5 * math.pi,
                                                    2.0 * math.pi)
    assert tuple(parse_pi_times("pi")) == (math.pi,)
    assert tuple(parse_pi_times("1.5e0")) == (1.5,)
    for bad in ("abc", "1,,2", ""):
        with pytest.raises(ConfigError):
            parse_pi_times(bad)


# ----------------------------------------------------------------- verify

def test_verify_static_passes(capsys, recwarn):
    rc, out, err = run_cli(capsys, ["verify", "--preset", "static"])
    assert rc == 0
    assert err == "" and len(recwarn) == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 15
    assert all(ch["passed"] for ch in report["checks"])
    assert report["derived"]["c0"] == pytest.approx(1.0, abs=1e-12)


def test_verify_soliton_passes(capsys, recwarn):
    # stays quiet: no warning from the closed-form states, recorded or printed
    rc, out, err = run_cli(capsys, ["verify", "--preset", "fig2-soliton"])
    assert rc == 0
    assert err == "" and len(recwarn) == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {ch["name"] for ch in report["checks"]}
    assert {"first-integral-drift", "picard-vs-rk4", "normalization",
            "orthogonality", "energy-affinity",
            "pde-density-distance"} <= names


def test_verify_fails_on_coarse_grid(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--preset", "static",
                                  "--grid-points", "16", "--half-width", "6"])
    assert rc == 1
    report = json.loads(out)
    assert report["passed"] is False
    failed = {ch["name"] for ch in report["checks"] if not ch["passed"]}
    assert "normalization" in failed


def test_battery_energies_equal_mean_energy_levels(monkeypatch, capsys):
    # the battery's E_0..E_7 at each of its 11 check times, on the live
    # window of its check grid, within 1e-13 relative of those of
    # mean_energy_levels on the same trajectory, time and whole grid
    seen, trajectories = [], []
    state_checks = verify._state_checks

    def keep_trajectory(ptraj, *args):
        trajectories.append(ptraj)
        return state_checks(ptraj, *args)

    def spy(frame, table, x, step, gram):
        energies = level_energies(frame, table, x, step, gram)
        seen.append((frame, x, step, energies))
        return energies

    monkeypatch.setattr(verify, "_state_checks", keep_trajectory)
    monkeypatch.setattr(verify, "level_energies", spy)
    rc, _, _ = run_cli(capsys, ["verify", "--preset", "fig2-soliton"])
    assert rc == 0
    assert len({frame.t for frame, *_ in seen}) == len(seen) == 11
    [ptraj] = trajectories
    for frame, x, step, energies in seen:
        grid = auto_space_grid(ptraj, TrainSpec(n=8, b0=frame.spec.b0, c0=frame.spec.c0))
        lo = grid.index_of(float(x[0]))
        assert step == grid.step and np.array_equal(grid.points()[lo:lo + len(x)], x)
        spec = TrainSpec(n=7, b0=frame.spec.b0, c0=frame.spec.c0)
        levels = mean_energy_levels(ptraj, spec, frame.t, grid)
        assert np.all(np.abs(energies - levels) <= 1e-13 * np.abs(levels))


def test_verify_of_a_state_off_the_grid_fails_affinity_quietly(capsys):
    # the state lies wholly off an explicit grid: the live window is empty,
    # every energy is 0, and the ladder with no spacing fails energy-affinity
    # at 1.0 instead of passing at a NaN-dropped 0.0 with a RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, ["verify", "--preset", "static", "--grid-points",
                                        "16", "--half-width", "6", "--center", "1000"])
    assert rc == 1 and err == "" and caught == []
    checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    assert checks["energy-affinity"]["value"] == 1.0
    assert not checks["energy-affinity"]["passed"]
    assert checks["normalization"]["value"] == 1.0


def _state_check_values(argv):
    """The battery's four state-check values, by name, for ``verify ARGV``."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["verify", *argv]))
    horizon = min(0.5 * math.pi, cfg.time.t_final)
    _, ptraj = cli._solve_polar(cfg, cfg.time.t_final, times=(horizon,))
    spec = cli._effective_spec(cfg, ptraj.c0)
    grid = cli._space_grid(cfg, ptraj, TrainSpec(n=max(spec.n, 8), b0=spec.b0, c0=spec.c0))
    return {c["name"]: c["value"] for c in verify._state_checks(ptraj, spec, grid)}


@pytest.mark.parametrize("argv", [["--preset", "fig2-soliton"],
                                  ["--preset", "fig2-soliton", "--n", "10"],
                                  ["--preset", "static"]],
                         ids=["soliton", "soliton-n10", "static"])
def test_state_checks_blocked_match_single_block(monkeypatch, argv):
    # 1000-column blocks split every live window (1024 to 1678 columns)
    # that one block holds whole: the node count must not move, and the
    # norm, overlaps and energy ladder, summed block by block, only by
    # rounding
    monkeypatch.setattr(numerics, "RESIDUAL_BLOCK", 2**30)
    whole = _state_check_values(argv)
    monkeypatch.setattr(numerics, "RESIDUAL_BLOCK", 1000)
    blocked = _state_check_values(argv)
    assert list(blocked) == ["normalization", "node-count", "orthogonality",
                             "energy-affinity"]
    assert blocked["node-count"] == whole["node-count"] == 0
    for name in ("normalization", "orthogonality", "energy-affinity"):
        assert blocked[name] == pytest.approx(whole[name], rel=0, abs=1e-13), name


def test_state_checks_peak_memory_is_flat_in_grid_count():
    # the stage holds one block of the Hermite table and the h_n row of a
    # live window, nothing as long as the check grid: quadrupling an
    # explicit grid at a fixed step, which keeps every live window, must
    # not raise its traced peak
    peaks = []
    for count in (2**16, 2**18):
        argv = ["--preset", "fig2-soliton", "--grid-points", str(count),
                "--half-width", str(80.0 * count / 2**16)]
        tracemalloc.start()
        try:
            values = _state_check_values(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values["normalization"] < 1e-12
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0]


def test_state_checks_peak_memory_is_flat_in_live_window():
    # the node count takes the h_n row block by block: at a fixed half-width,
    # 2^19 points put 4x the columns of 2^17 into each live window, which
    # must not raise the traced peak
    peaks = []
    for count in (2**17, 2**19):
        argv = ["--preset", "fig2-soliton", "--grid-points", str(count), "--half-width", "40"]
        tracemalloc.start()
        try:
            values = _state_check_values(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values["node-count"] == 0
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0]


def _residual_run(argv):
    """(traj, spec, grid, step_c) of verify's residual checks for ``verify ARGV``."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["verify", *argv]))
    t_final = cfg.time.t_final
    traj, ptraj = cli._solve_polar(cfg, t_final, times=(min(0.5 * math.pi, t_final),))
    spec = cli._effective_spec(cfg, ptraj.c0)
    grid, step_c = verify._residual_grid(traj, ptraj, spec, t_final, cfg.solver.rk4_step)
    return traj, spec, grid, step_c


@pytest.mark.parametrize("window", [7, 1000, 2**15])
@pytest.mark.parametrize("argv", [
    ["--preset", "fig3-collapse", "--b0", "1", "--t-final", "0.05pi"],
    ["--preset", "fig3-collapse", "--n", "8", "--t-final", "0.02pi"],
    ["--preset", "fig2-soliton", "--b0", "-40", "--t-final", "0.1pi"]],
                         ids=["collapse-b0-1", "collapse-n8", "soliton-b0-40"])
def test_streamed_residuals_equal_whole_array_sweeps(monkeypatch, window, argv):
    # the refined trajectory, streamed in windows of 7 steps (its halo then
    # spans several windows), 1000 steps or one window, must give every
    # residual value of the whole-array functions on the whole solve bit for bit
    monkeypatch.setattr(mathieu, "WINDOW", window)
    traj, spec, grid, step_c = _residual_run(argv)
    m = verify._stride(grid, step_c)
    assert grid.count > 2000 and (m > 1 or "--n" in argv)
    got = {c["name"]: c["value"] for c in verify._residual_checks(traj, spec, grid, step_c)}
    whole = solve_classical(traj.params, traj.init, (0.0, grid.stop), grid.step)
    assert whole.grid == grid
    pwhole = polar_decompose(whole)
    polar = polar_ode_residuals(every(pwhole, m), relative=True)
    eq4 = verify_eq4(pwhole, spec, relative=True)
    assert got == {"mathieu-residual": mathieu_residual(every(whole, m), relative=True),
                   "polar-theta-residual": polar["theta"],
                   "polar-rho-residual": polar["rho"],
                   **{f"coeff-{key}-residual": eq4[key] for key in "cbefa"}}


def test_residual_checks_peak_memory_is_flat_in_refinement():
    # b0 = 3 refines the residual trajectory about 11x against b0 = 0.02;
    # streamed window by window, its traced peak must not follow
    peaks = []
    for b0 in ("0.02", "3"):
        traj, spec, grid, step_c = _residual_run(["--preset", "fig3-collapse",
                                                  "--t-final", "1pi", "--b0", b0])
        tracemalloc.start()
        try:
            verify._residual_checks(traj, spec, grid, step_c)
            peaks.append((grid.count, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (small_count, small), (large_count, large) = peaks
    assert large_count > 8 * small_count
    assert large <= 1.25 * small


def test_verify_report_does_not_depend_on_blas_threads(tmp_path):
    # the Gram matrix is a BLAS product; on 65536 points it is large enough
    # for OpenBLAS to split it over threads, and the report must not move
    src = os.path.dirname(os.path.dirname(wavetrains.__file__))
    reports = []
    for threads in ("1", None, "4"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "wavetrains.cli", "verify",
                               "--preset", "static", "--grid-points", "65536"],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1] == reports[2]


def test_verify_pde_distance_is_the_serial_oracle_bit_for_bit(monkeypatch, capsys):
    # the PDE stage runs on a worker thread; the same call made serially
    # here gives the report's value exactly
    calls = []
    oracle_rows = verify.oracle_rows

    def spy(*args):
        rows = oracle_rows(*args)
        calls.append((args, rows))
        return rows

    monkeypatch.setattr(verify, "oracle_rows", spy)
    rc, out, _ = run_cli(capsys, ["verify", "--preset", "fig2-soliton"])
    assert rc == 0
    [(args, rows)] = calls
    [(_, distance, _)] = oracle_rows(*args)
    checks = {ch["name"]: ch["value"] for ch in json.loads(out)["checks"]}
    assert distance == rows[0][1] == checks["pde-density-distance"]


@pytest.mark.parametrize("failing", [
    ("split_step_evolve",), ("picard_iterate",), ("picard_iterate", "split_step_evolve"),
], ids=["oracle", "picard", "both"])
def test_verify_stage_error_exits_1_and_leaves_no_thread(monkeypatch, capsys, failing):
    # the oracle is slowed so that it still runs when the main thread fails;
    # a failing stage is reported as in a serial battery, where the Picard
    # check comes first
    def slow_evolve(*args, **kwargs):
        time.sleep(0.3)
        return split_step_evolve(*args, **kwargs)

    def failure(name):
        def fail(*args, **kwargs):
            raise NormDrift(f"{name} failed")
        return fail

    monkeypatch.setattr(verify, "split_step_evolve", slow_evolve)
    for name in failing:
        monkeypatch.setattr(verify, name, failure(name))
    before = threading.active_count()
    rc, out, err = run_cli(capsys, ["verify", "--preset", "static"])
    assert rc == 1 and out == ""
    assert err == f"error: {failing[0]} failed\n"
    assert threading.active_count() == before


def test_verify_error_cancels_the_running_propagation(capsys):
    # the refined residual step is refused at once, while the PDE stage on
    # its n = 200 grid would propagate for about half a minute; over 16 pi,
    # n = 200 asks for 4.2e7 samples, more than the cap
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["verify", "--preset", "fig3-collapse", "--n", "200",
                                    "--t-final", "16pi"])
    assert rc == 2 and out == ""
    assert err.startswith("error: the classical solve needs")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("flag, value, samples", [("--n", "200", "4.199e+07"),
                                                  ("--b0", "40", "1.676e+09")])
def test_refused_verify_never_starts_the_pde_stage(monkeypatch, capsys, flag, value,
                                                   samples):
    # the refined residual solve is sized before the PDE worker starts, so
    # a refused request builds no propagation state (over 16 pi, so that
    # n = 200 passes the cap)
    calls = []
    monkeypatch.setattr(verify, "oracle_rows", lambda *args: calls.append(args))
    rc, out, err = run_cli(capsys, ["verify", "--preset", "fig3-collapse", flag, value,
                                    "--t-final", "16pi"])
    assert rc == 2 and out == ""
    assert err == (f"error: the classical solve needs {samples} samples, "
                   f"more than the cap of {numerics.MAX_SAMPLES}\n")
    assert calls == []


def test_verify_passes_on_a_check_grid_clamped_below_its_wavelength_rule(monkeypatch,
                                                                           capsys):
    # n = 60 to 0.3pi, the cheapest run found with the clamp binding: the rule
    # asks for 2^20.09 points, the grid keeps 2^20 and fewer than 16 samples
    # per narrowest local wavelength, and every check still passes (as at
    # n = 25 to 140 over the whole run; n = 200 fails normalization)
    grids = []

    def recorded(ptraj, spec, count=None):
        grids.append((ptraj, spec, auto_space_grid(ptraj, spec, count)))
        return grids[-1][2]

    monkeypatch.setattr(cli, "auto_space_grid", recorded)
    rc, out, err = run_cli(capsys, ["verify", "--preset", "fig3-collapse", "--n", "60",
                                    "--t-final", "0.3pi"])
    [(ptraj, spec, grid)] = grids
    wavelength = 2.0 * math.pi * float(np.min(ptraj.rho)) / math.sqrt(spec.c0)
    assert grid.count == 2**20
    assert grid.step > wavelength / (16.0 * math.sqrt(2.0 * spec.n + 1.0))
    assert (rc, err) == (0, "") and json.loads(out)["passed"]


def test_picard_iterations_past_the_budget_are_usage_error(monkeypatch, capsys):
    # 2^40 Picard passes over verify's 8193 samples would run for years:
    # refused before any pass and before the PDE stage starts
    calls = []
    monkeypatch.setattr(verify, "picard_iterate", lambda *args: calls.append(args))
    monkeypatch.setattr(verify, "oracle_rows", lambda *args: calls.append(args))
    rc, out, err = run_cli(capsys, ["verify", "--preset", "static",
                                    "--iterations", "1099511627776"])
    assert rc == 2 and out == ""
    assert err.startswith("error: the Picard solve needs 1099511627776 iterations "
                          "on 8193 samples")
    assert calls == []


@pytest.mark.parametrize("b0", [["--b0", "1e200"],
                                ["--b0", "1e-100", "--declared-c0", "1e-300"]],
                         ids=["b0", "declared-c0"])
@pytest.mark.parametrize("command", ["snapshot", "series", "verify", "oracle-compare"])
def test_effective_b0_overflow_is_usage_error(capsys, command, b0):
    # b0^2/c0 past the float range is refused, not left to overflow later
    rc, out, err = run_cli(capsys, [command, "--preset", "static", "--times", "0.5pi"] + b0)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("half_width", ["-2.39", "0"])
@pytest.mark.parametrize("command", ["classical", "snapshot", "series", "verify",
                                     "oracle-compare"])
def test_non_positive_half_width_is_usage_error(capsys, command, half_width):
    # refused by validate on every command, including those that build no
    # spatial grid, instead of a ValueError traceback or a silent exit 0
    rc, out, err = run_cli(capsys, [command, "--preset", "fig2-soliton", "--half-width",
                                    half_width, "--grid-points", "8", "--times", "0.5pi"])
    assert rc == 2 and out == ""
    assert err.startswith("error: space.half_width must be positive") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["series", "--preset", "fig2-soliton", "--t-final", "1.7e308"],
    ["series", "--preset", "static", "--rk4-step", "5e-324"],
    ["classical", "--preset", "static", "--rk4-step", "5e-324"],
    ["verify", "--preset", "static", "--t-final", "1.7e308"],
    ["snapshot", "--preset", "static", "--times", "1.7e308"],
    ["oracle-compare", "--preset", "static", "--times", "1e308"],
], ids=["series-t-final", "series-rk4-step", "classical", "verify", "snapshot",
        "oracle-compare"])
def test_infinite_step_count_is_usage_error(capsys, argv):
    # t_final / step overflows to inf: refused by the sample cap before the
    # step count is rounded, instead of an OverflowError from math.ceil(inf)
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: the classical solve needs inf samples")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classical", "series", "verify"])
def test_rk4_step_past_stability_limit_is_usage_error(capsys, command):
    # one step of h sqrt(k) = 9e64 would blow the orbit up to drho inf and
    # dtheta nan; a step past RK4's limit 2 sqrt(2) is refused instead
    argv = [command, "--preset", "static", "--rk4-step", "8.98e64", "--t-final", "8.98e64"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: the RK4 step 8.98e+64 is past the stability limit")
    assert err.count("\n") == 1


def test_rk4_step_inside_stability_limit_runs(capsys):
    # static trap, k = 1: one step of 2.8 lies inside 2 sqrt(2) = 2.83
    argv = ["classical", "--preset", "static", "--rk4-step", "2.8", "--t-final", "2.8"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    assert run_cli(capsys, argv[:-3] + ["2.9", "--t-final", "2.9"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["snapshot", "--preset", "fig2-soliton", "--half-width", "5e-324",
     "--grid-points", "1024", "--times", "0"],
    ["oracle-compare", "--preset", "fig3-collapse", "--grid-points", "1024",
     "--half-width", "1e-244"],
    ["verify", "--preset", "fig3-collapse", "--t-final", "5e-324", "--rk4-step", "8.5e221",
     "--samples", "1000"],
], ids=["space-step", "aliasing-bound", "picard-step"])
def test_step_that_rounds_to_zero_is_usage_error(capsys, argv):
    # 2 half_width / count, k_max x_edge dx and t_final / 8192 underflow to
    # 0.0: refused instead of a ValueError or ZeroDivisionError traceback
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sample_selection_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use; the sampled commands dedupe
    # their indices without it
    src = os.path.dirname(os.path.dirname(wavetrains.__file__))
    code = ("import os, sys\n"
            "from wavetrains.cli import main\n"
            "for command in ('classical', 'series'):\n"
            "    assert main([command, '--preset', 'static', '--samples', '64',\n"
            "                 '--out', os.devnull]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_the_csv_kernel_uncompiled():
    # the package sources are compiled on every start when no bytecode is
    # written; the CSV kernel is imported by the first CSV, not by the CLI
    src = os.path.dirname(os.path.dirname(wavetrains.__file__))
    code = "import sys, wavetrains.cli\nprint('wavetrains.g17' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_module_does_not_load_the_cli():
    # the battery is a library module under the front end, not beside it
    src = os.path.dirname(os.path.dirname(wavetrains.__file__))
    code = "import sys, wavetrains.verify\nprint('wavetrains.cli' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_passes_on_smallest_resolving_grid(capsys):
    # 32 points over [-6, 6) resolve the n = 8 check state: the
    # rectangle-rule norm is within 4e-7 of 1
    rc, out, _ = run_cli(capsys, ["verify", "--preset", "static",
                                  "--grid-points", "32", "--half-width", "6"])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(ch["passed"] for ch in report["checks"])


def test_verify_collapse_passes_at_ground_state(capsys, recwarn):
    # the residual step is floored at the n = 4 phase rate: the c and polar
    # residuals do not depend on n, so n = 0 must not coarsen their step
    rc, out, err = run_cli(capsys, ["verify", "--preset", "fig3-collapse", "--n", "0"])
    assert rc == 0
    assert err == "" and len(recwarn) == 0
    report = json.loads(out)
    assert all(ch["passed"] for ch in report["checks"])


@pytest.mark.parametrize("argv", [["--b0", "1"], ["--b0", "3"], ["--n", "2"], ["--n", "6"],
                                  ["--n", "8"]], ids=["b0-1", "b0-3", "n2", "n6", "n8"])
def test_verify_collapse_passes_off_the_default_train(capsys, argv):
    # a larger b0 or n refines the coefficient residuals' step (b0 = 3 by
    # 11x); the classical and polar residuals keep the step of the n = 4
    # floor, since neither enters their equations, and stay off the
    # rounding floor eps/h^2 of a second difference
    rc, out, _ = run_cli(capsys, ["verify", "--preset", "fig3-collapse", *argv])
    failed = [ch for ch in json.loads(out)["checks"] if not ch["passed"]]
    assert rc == 0 and failed == []


@pytest.mark.parametrize("name", ["fig2-soliton", "fig3-collapse", "static"])
def test_verify_residuals_sit_a_decade_below_tolerance(capsys, name):
    # a formula defect must be able to lift a residual past its tolerance,
    # so the discretization floor sits at least 10x below it
    rc, out, _ = run_cli(capsys, ["verify", "--preset", name])
    residuals = [ch for ch in json.loads(out)["checks"] if ch["name"].endswith("-residual")]
    assert rc == 0 and len(residuals) == 8
    assert all(ch["value"] <= ch["tolerance"] / 10 for ch in residuals), residuals


@pytest.mark.parametrize("argv", [
    ["classical", "--rk4-step", "1e-15", "--t-final", "1e-3"],
    ["verify", "--preset", "fig3-collapse", "--n", "200", "--t-final", "16pi"],
    ["snapshot", "--grid-points", str(2**40), "--half-width", "10"],
], ids=["classical-step", "verify-refined-step", "snapshot-grid"])
def test_oversized_requests_are_refused(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "more than the cap" in err


@pytest.mark.parametrize("argv, count, norm", [
    (["--b0", "1e150"], 2**20, "0"),
    (["--grid-points", "2", "--n", "200"], 2, "5.09295"),
], ids=["huge-b0", "two-points"])
def test_auto_grid_refuses_a_state_it_cannot_hold(capsys, recwarn, argv, count, norm):
    # a grid the program chose must hold the state: the huge b0 clamps the
    # grid at 2^20 points with a step of 4.8e137, two points alias n = 200
    rc, out, err = run_cli(capsys, ["snapshot", "--preset", "static",
                                    "--times", "0"] + argv)
    assert rc == 2 and out == ""
    assert err == (f"error: the auto grid of {count} points cannot hold the state at "
                   f"t = 0: its norm there is {norm}, not 1 within 1e-06; set the grid "
                   "with --half-width and --grid-points\n")


def test_explicit_grid_keeps_the_norm_warning(capsys):
    # an explicit grid is the caller's decision: written, with a warning
    with pytest.warns(NormDeficitWarning):
        rc, out, _ = run_cli(capsys, ["snapshot", "--preset", "static", "--times", "0",
                                      "--grid-points", "16", "--half-width", "2"])
    assert rc == 0
    assert abs(float(meta_value(out, "snapshot.0.norm")) - 1.0) > 1e-6


# --------------------------------------------------------- oracle-compare

def test_oracle_compare_within_tolerance(capsys):
    rc, out, _ = run_cli(capsys, ["oracle-compare", "--preset", "fig2-soliton",
                                  "--times", "0,0.5pi",
                                  "--grid-points", "1024"])
    assert rc == 0
    assert float(meta_value(out, "propagation.max_distance")) < 1e-3
    names, rows = data_rows(out)
    assert names == ["t", "density_distance", "fidelity"]
    assert float(np.min(rows[:, 2])) > 0.999


def test_oracle_compare_flag_validation(capsys):
    rc, _, err = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                  "--times", "0.5", "--dt", "abc"])
    assert rc == 2
    rc, _, _ = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                "--times", "0.5", "--dt", "-0.01"])
    assert rc == 2
    for flag, value in (("--dt", "nan"), ("--dt", "inf"),
                        ("--tolerance", "nan"), ("--tolerance", "-1")):
        rc, _, err = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                      "--times", "0.5", flag, value])
        assert rc == 2 and err.startswith(f"error: {flag}")


def test_oracle_compare_dt_off_the_time_lattice_is_usage_error(capsys):
    # 0.5pi is no whole number of 1e-7 steps: refused before propagating
    for times, dt in (("0.5pi", "1e-7"), ("0.25pi,0.5pi", "0.1pi")):
        rc, out, err = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                        "--times", times, "--dt", dt])
        assert rc == 2 and out == ""
        assert err.startswith("error: --dt does not divide the requested times")


@pytest.mark.parametrize("dt", ["1e-9pi", "2.5e-4pi"])
def test_oracle_compare_refuses_step_count_past_cap(monkeypatch, capsys, dt):
    # a cap of 1800 samples admits the 1572-sample classical solve, so only
    # the propagation's 5e8 or 2000 steps can trip it
    monkeypatch.setattr(numerics, "MAX_SAMPLES", 1800)
    rc, out, err = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                    "--times", "0.5pi", "--dt", dt])
    assert rc == 2 and out == ""
    assert "split-step propagation" in err and "more than the cap" in err


def test_oracle_compare_refuses_work_past_the_point_step_budget(capsys):
    # 5e6 steps are under the step cap, but 5e6 steps on 1024 points are
    # past the budget: refused before propagating
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                    "--times", "0.5pi", "--dt", "1e-7pi"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: the split-step propagation needs 5000000 steps on 1024 points")
    assert "more than the budget" in err


def test_oracle_compare_fails_tight_tolerance(capsys):
    rc, out, _ = run_cli(capsys, ["oracle-compare", "--preset", "static",
                                  "--times", "0.5", "--grid-points", "512",
                                  "--tolerance", "1e-16"])
    assert rc == 1


# ----------------------------------------------------------- console script

@pytest.mark.skipif(shutil.which("wavetrains") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["wavetrains", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "wavetrains 0.1.0"
    proc = subprocess.run(["wavetrains", "snapshot", "--preset", "static",
                           "--times", "0", "--n", "0", "--b0", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "# snapshot.0.nodes = 0" in proc.stdout


def test_auto_dt_is_accuracy_limited_on_collapse_grid(collapse_polar, collapse_spec):
    grid = propagation_grid(collapse_polar, collapse_spec)
    half_pi = 0.5 * math.pi
    assert _auto_dt(COLLAPSE_PARAMS, grid, half_pi, (half_pi,)) == math.pi / 2048
    assert aliasing_dt_bound(COLLAPSE_PARAMS, grid) > 100 * math.pi / 2048
