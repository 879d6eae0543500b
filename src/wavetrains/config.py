"""Run configuration: named presets, strict JSON config parsing, the
``0,0.5pi,2pi`` time grammar, and deterministic CSV/JSON rendering.

A config file is a JSON object whose groups and keys mirror ``RunConfig``
field for field; unknown keys at any level are errors, missing keys keep
their defaults.  Rendering is bit-deterministic: floats are written with
17 significant digits (CSV) or shortest round-trip (JSON), keys are
emitted in sorted order.  The CSV writer's text comes from ``g17.text``,
a numpy kernel that writes the exact ``'%.17g' % v`` text of a whole
column as bytes (module ``g17``, imported on the first CSV written so
that the package's import does not compile it).  It formats each
distinct column block once: a snapshot's t column (one value per time)
and its x column (one grid, repeated for every time) are not formatted
again per row.  The JSON writer renders its rows in blocks of float text
and splices them into the ``json.dumps`` text of the rest of the
document.

Each writer is a generator of pieces, ``csv_pieces`` and ``json_pieces``:
the header, then one piece per block of ``_CSV_BLOCK`` rows, formatted
only when the consumer asks for it.  ``render_csv`` and ``render_json``
return the join of the same pieces as one string or, given the pieces
iterator, format and return only its next piece: the command line writes
its output that way, one piece per call, so the whole text never exists
at once and a wrapper of the two names, such as perfbench's tracer, still
sees all the formatting.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnknownPreset
from .numerics import is_power_of_two

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
_CSV_BLOCK = 4096  # rows per formatting block (and per piece) of both writers
MAX_N = 200  # stable range of TrainSpec.a0 and hermite_scaled


@dataclass(frozen=True)
class TrapConfig:
    """Trap drive k(t) = u2 + v cos(2 t)."""

    u2: float = 0.25
    v: float = 0.05


@dataclass(frozen=True)
class InitConfig:
    """Undriven-limit amplitudes and phases: the v = 0 solution is
    phi1 = a cos(sqrt(u2) t + alpha), phi2 = b cos(sqrt(u2) t + beta)."""

    a: float = 1.0
    b: float = 1.0
    alpha: float = 0.0
    beta: float = -_HALF_PI


@dataclass(frozen=True)
class TrainConfig:
    """Quantum number, center constant, and an optional declared first
    integral; when ``declared_c0`` is set, b0 is rescaled by
    (computed c0 / declared c0) so the center orbit keeps the amplitude
    the caller asked for under their normalization convention."""

    n: int = 8
    b0: float = -10.0
    declared_c0: float | None = None


@dataclass(frozen=True)
class SolverConfig:
    iterations: int = 4
    rk4_step: float = 1e-3


@dataclass(frozen=True)
class TimeConfig:
    t_final: float = 2.0 * _TWO_PI
    samples: int = 1025
    times: tuple[float, ...] = (0.0, _HALF_PI, _TWO_PI)


@dataclass(frozen=True)
class SpaceConfig:
    """policy "auto" sizes the grid from the trajectory; "explicit" takes
    center/half_width/grid_points literally (grid_points power of two)."""

    policy: str = "auto"
    grid_points: int | None = None
    half_width: float | None = None
    center: float = 0.0


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    params: TrapConfig = field(default_factory=TrapConfig)
    init: InitConfig = field(default_factory=InitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    space: SpaceConfig = field(default_factory=SpaceConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_GROUPS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def parse_pi_times(text: str) -> tuple[float, ...]:
    """Parse a comma-separated time list where a trailing ``pi`` scales by
    pi: ``"0,0.5pi,2pi"`` -> (0.0, pi/2, 2 pi)."""
    out = []
    for raw in str(text).split(","):
        tok = raw.strip()
        if not tok:
            raise ConfigError(f"empty entry in time list {text!r}")
        factor = 1.0
        if tok.endswith("pi"):
            factor = math.pi
            tok = tok[:-2].strip()
            if tok in ("", "+"):
                tok = "1"
            elif tok == "-":
                tok = "-1"
        try:
            out.append(float(tok) * factor)
        except ValueError:
            raise ConfigError(f"cannot parse time entry {raw.strip()!r}") from None
    return tuple(out)


def _coerce_times(value) -> tuple[float, ...]:
    if isinstance(value, str):
        return parse_pi_times(value)
    try:
        if any(isinstance(v, bool) for v in value):
            raise TypeError
        return tuple(parse_pi_times(v)[0] if isinstance(v, str) else float(v)
                     for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"times must be numbers or 'pi' strings, got {value!r}") from None


def _coerce(group: str, name: str, kind: type, value):
    if kind is tuple:
        return _coerce_times(value)
    if kind is int:
        if isinstance(value, bool) or int(value) != value:
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, (bool, str)):
            raise ConfigError(f"{group}.{name} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _group_from_dict(cls, want: dict, group: str):
    """Each field's type, and whether it may be null, come from its
    annotation: ``int | None``, ``float``, ``tuple[float, ...]``."""
    hints = typing.get_type_hints(cls)
    unknown = set(want) - set(hints)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in group {group!r}")
    kwargs = {}
    for name, value in want.items():
        kind = hints[name]
        nullable = isinstance(kind, types.UnionType)
        if value is None and not nullable:
            raise ConfigError(f"{group}.{name} must not be null")
        kind = typing.get_args(kind)[0] if nullable else typing.get_origin(kind) or kind
        try:
            kwargs[name] = None if value is None else _coerce(group, name, kind, value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value {value!r} for {group}.{name}") from None
    return cls(**kwargs)


def from_dict(data: dict) -> RunConfig:
    """Strictly parse a nested config dict; unknown groups or keys raise."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - set(_GROUPS)
    if unknown:
        raise ConfigError(f"unknown config group(s) {sorted(unknown)}")
    kwargs = {}
    for group, cls in _GROUPS.items():
        if group in data:
            sub = data[group]
            if not isinstance(sub, dict):
                raise ConfigError(f"group {group!r} must be an object")
            kwargs[group] = _group_from_dict(cls, sub, group)
    return validate(RunConfig(**kwargs))


def validate(cfg: RunConfig) -> RunConfig:
    """Invariant checks shared by file configs and flag overrides."""
    for group in _GROUPS:
        for name, value in vars(getattr(cfg, group)).items():
            values = value if name == "times" else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{group}.{name} must be finite, got {value!r}")
    if not (cfg.params.u2 > 0):
        raise ConfigError(f"params.u2 must be positive, got {cfg.params.u2}")
    if cfg.train.n < 0:
        raise ConfigError(f"train.n must be >= 0, got {cfg.train.n}")
    if cfg.train.n > MAX_N:
        raise ConfigError(f"train.n must be <= {MAX_N}, the stable range of the "
                          f"Hermite recurrence and normalization; got {cfg.train.n}")
    if cfg.train.declared_c0 is not None and not (cfg.train.declared_c0 > 0):
        raise ConfigError(f"train.declared_c0 must be positive, got {cfg.train.declared_c0}")
    if cfg.solver.iterations < 0:
        raise ConfigError(f"solver.iterations must be >= 0, got {cfg.solver.iterations}")
    if not (cfg.solver.rk4_step > 0):
        raise ConfigError(f"solver.rk4_step must be positive, got {cfg.solver.rk4_step}")
    if not (cfg.time.t_final > 0):
        raise ConfigError(f"time.t_final must be positive, got {cfg.time.t_final}")
    if cfg.time.samples < 2:
        raise ConfigError(f"time.samples must be >= 2, got {cfg.time.samples}")
    if any(t < 0 for t in cfg.time.times):
        raise ConfigError(f"times must be >= 0, got {list(cfg.time.times)}")
    if cfg.space.policy not in ("auto", "explicit"):
        raise ConfigError(f"space.policy must be 'auto' or 'explicit', got {cfg.space.policy!r}")
    if cfg.space.policy == "explicit":
        if cfg.space.grid_points is None or cfg.space.half_width is None:
            raise ConfigError("space.policy 'explicit' needs grid_points and half_width")
        if not (cfg.space.half_width > 0):
            raise ConfigError(f"space.half_width must be positive, got {cfg.space.half_width}")
    elif cfg.space.half_width is not None:
        raise ConfigError("space.half_width needs space.policy 'explicit'; "
                          "the auto policy sizes the box itself")
    elif cfg.space.center != 0.0:
        raise ConfigError("space.center needs space.policy 'explicit'; "
                          "the auto policy places the box itself")
    if cfg.space.grid_points is not None:
        gp = cfg.space.grid_points
        if gp < 2 or not is_power_of_two(gp):
            raise ConfigError(f"space.grid_points must be a power of two >= 2, got {gp}")
    if cfg.output.format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {cfg.output.format!r}")
    return cfg


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    return from_dict(data)


_PRESETS = {
    "fig1-rho": RunConfig(),
    "fig2-soliton": RunConfig(),
    "fig3-collapse": RunConfig(
        init=InitConfig(a=0.02, b=10.0),
        train=TrainConfig(n=4, b0=0.02),
        time=TimeConfig(times=(0.0, math.pi, _TWO_PI)),
    ),
    "static": RunConfig(
        params=TrapConfig(u2=1.0, v=0.0),
        train=TrainConfig(n=8, b0=0.0),
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> RunConfig:
    """Named parameter sets.

    * ``fig2-soliton`` (alias ``fig1-rho``): weakly driven trap, n = 8
      train with a wide center orbit; the nine-hump pattern rides a
      breathing envelope.
    * ``fig3-collapse``: strongly squeezed classical orbit (rho swings
      between A = 0.02 and about B(1 + V/3U) = 10.33), n = 4; the packet
      periodically collapses to a sharp spike and revives.
    * ``static``: undriven trap (v = 0), centered (b0 = 0); the state is
      the stationary n-th oscillator eigenfunction.
    """
    if name not in _PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]


def to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["time"]["times"] = list(out["time"]["times"])
    return out


def _fmt_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return str(value)


def flat_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Sorted (dotted key, rendered value) pairs for header echoes."""
    return sorted((f"{group}.{name}", _fmt_scalar(value))
                  for group, sub in to_dict(cfg).items() for name, value in sub.items())


def _table(rows):
    """``rows`` as a 2-D float array, or as given when it is a row table: an
    object with ``shape``, ``len()`` and ``[s:e]`` slices that build blocks,
    and ``keyed``, the count of leading columns that may recur in it, which
    its ``[s:e, :keyed]`` slices give without building the rest."""
    return np.asarray(rows, dtype=float) if isinstance(rows, (list, tuple, np.ndarray)) else rows


def _csv_blocks(data):
    """Yield the data lines of a 2-D float array or row table (``_table``),
    ``_CSV_BLOCK`` rows per string, each line ended by its newline.

    A block is laid out as the ``g17.text`` words of its values, row by
    row, with each separator in the free first byte of the next value's
    sign word and a last word for the final newline; one ``translate``
    drops the absent (0) bytes.  A column whose values share one bit
    pattern (so -0.0 and 0.0, or two NaN payloads, differ) is formatted
    once per distinct value and broadcast.  A keyed column (every column
    of an array, the leading ``keyed`` of a row table) whose bytes recur
    elsewhere in the table, counted by hash in a pre-pass that reads the
    keyed columns alone, is formatted once and held in a memo keyed by
    its full bytes until its last use; so each block is built only once."""
    from . import g17  # here, not at the top: only a CSV needs it

    starts = range(0, len(data), _CSV_BLOCK)
    keyed = getattr(data, "keyed", data.shape[1])
    keys = [[hash(col.tobytes()) for col in data[s:s + _CSV_BLOCK, :keyed].T]
            for s in starts]
    uses = Counter(h for row in keys for h in row)
    left = uses.copy()
    memo: dict[bytes, np.ndarray] = {}
    constants: dict[bytes, np.ndarray] = {}

    def formatted(col, cache, key):
        text = cache.get(key)
        if text is None:
            text = cache[key] = np.empty((len(col), 4), dtype=np.uint64)
            g17.text(col, text)
        return text

    for s, row in zip(starts, keys):
        block = data[s:s + _CSV_BLOCK]
        words = np.empty(block.size * 4 + 1, dtype=np.uint64)
        table = words[:-1].reshape(block.shape + (4,))
        for j, (col, bits) in enumerate(zip(block.T, block.T.view(np.int64))):
            h = row[j] if j < keyed else None
            if np.all(bits == bits[0]):
                table[:, j] = formatted(col[:1], constants, col[:1].tobytes())
            elif h is None or uses[h] == 1:
                g17.text(col, table[:, j])
            else:
                key = col.tobytes()
                table[:, j] = formatted(col, memo, key)
                left[h] -= 1
                if not left[h]:  # last use; a hash collision only keeps text longer
                    del memo[key]
        words[-1] = ord("\n")
        text = words.view(np.uint8)
        seps = text[:-8].reshape(block.shape + (32,))[:, :, 0]
        seps[:, 1:] = ord(",")
        seps[1:, 0] = ord("\n")
        yield text.tobytes().translate(None, b"\0").decode("ascii")


def csv_pieces(cfg: RunConfig, columns: list[str], rows,
               meta: list[tuple[str, str]] | None = None):
    """The text of ``render_csv`` as pieces: the comment header and the
    column names, then one piece per block of ``_CSV_BLOCK`` data lines of
    ``rows``, a 2-D float array, a list of rows or a row table (``_table``)."""
    lines = [f"# {key} = {value}" for key, value in flat_items(cfg) + list(meta or [])]
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    data = _table(rows)
    if math.prod(data.shape):
        yield from _csv_blocks(data)


def render_csv(cfg: RunConfig, columns: list[str], rows,
               meta: list[tuple[str, str]] | None = None, *, pieces=None) -> str:
    """CSV with a self-describing comment header: every config field as a
    ``# key = value`` line, optional extra metadata lines, the column
    names, then the data at 17 significant digits.

    The text is the join of ``csv_pieces``.  Given ``pieces``, an iterator
    from ``csv_pieces`` over the same arguments, only its next piece is
    formatted and returned ("" once it is spent).  ``rows`` may be a row
    table (``_table``), sliced a block at a time.  Rows are formatted a
    block of ``_CSV_BLOCK`` rows at a time (``_csv_blocks``), each column
    by the numpy kernel ``g17.text``; a block column that is constant, or
    that recurs elsewhere in the table (a snapshot's t and x columns), is
    formatted once.  The bytes equal a per-value ``f"{float(v):.17g}"``
    join."""
    if pieces is not None:
        return next(pieces, "")
    return "".join(csv_pieces(cfg, columns, rows, meta))


def _json_row_blocks(data):
    """Yield the items of the ``"rows"`` array of an ``indent=2`` document
    from a float array or row table, ``_CSV_BLOCK`` rows per string, each
    block after the first led by the separator between rows, each by one
    ``%`` operation over a row
    template.  The text of a finite float is its repr, which is what
    ``json.dumps`` writes; a block holding NaN or infinity takes each value's
    text from ``json.dumps`` itself (``NaN``, ``Infinity``)."""
    row_fmt = "    [\n" + ",\n".join(["      %s"] * data.shape[1]) + "\n    ]"
    for s in range(0, len(data), _CSV_BLOCK):
        block = data[s:s + _CSV_BLOCK]
        values = block.ravel().tolist()
        if not np.isfinite(block).all():
            values = [json.dumps(v) for v in values]
        lead = ",\n" if s else ""
        yield (lead + ",\n".join([row_fmt] * len(block))) % tuple(values)


def json_pieces(cfg: RunConfig, columns: list[str], rows, meta: dict | None = None):
    """The text of ``render_json`` as pieces: the document up to the open
    rows array, one piece per block of ``_CSV_BLOCK`` rows, and the close.

    ``rows`` is the last sorted key, so the rest of the document is dumped
    with an empty rows array and the rows are spliced in from
    ``_json_row_blocks``: no Python list per row, no pure-Python indenting
    encoder over every value.  ``rows`` is as for ``csv_pieces``."""
    data = _table(rows)
    doc = {"config": to_dict(cfg), "columns": list(columns), "rows": []}
    if meta:
        doc["meta"] = meta
    if not math.prod(data.shape):
        doc["rows"] = data.tolist()
        yield json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return
    head = json.dumps(doc, sort_keys=True, indent=2)  # ends '"rows": []\n}'
    yield head[:-len("[]\n}")] + "[\n"
    yield from _json_row_blocks(data)
    yield "\n  ]\n}\n"


def render_json(cfg: RunConfig, columns: list[str], rows,
                meta: dict | None = None, *, pieces=None) -> str:
    """The document {columns, config, meta, rows} exactly as
    ``json.dumps(doc, sort_keys=True, indent=2)`` writes it, with floats as
    shortest round-trip text: the join of ``json_pieces``.  Given
    ``pieces``, an iterator from ``json_pieces`` over the same arguments,
    only its next piece is formatted and returned ("" once it is spent)."""
    if pieces is not None:
        return next(pieces, "")
    return "".join(json_pieces(cfg, columns, rows, meta))
