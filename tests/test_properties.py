"""Property tests: the time grammar, the commensurate step count, the
spatial grid builder, the strict config parser, the CSV writer's
``%.17g`` kernel and the exit status of every command line over
generated inputs."""

import dataclasses
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wavetrains import ConfigError, InvalidCount, TooManySamples, build_space_grid, g17, numerics
from wavetrains import mathieu, splitstep
from wavetrains.cli import _commensurate_count, main
from wavetrains.config import (
    _GROUPS,
    MAX_N,
    PRESET_NAMES,
    from_dict,
    parse_pi_times,
    preset,
    to_dict,
)
from wavetrains.splitstep import lattice_steps
from wavetrains.trains import NodeCount, count_nodes

finite = st.floats(allow_nan=False, allow_infinity=False)

# Build Hypothesis's unicode table now: on a fresh checkout, building it
# inside the first st.text() draw fails the too_slow health check.
st.text().validate()


@given(st.lists(st.tuples(finite, st.booleans()), min_size=1, max_size=6))
def test_parse_pi_times_round_trips_repr(entries):
    text = ",".join(repr(v) + ("pi" if in_pi else "") for v, in_pi in entries)
    expected = tuple(v * math.pi if in_pi else v for v, in_pi in entries)
    assert parse_pi_times(text) == expected


# pi-rational times k/d pi with small k and d, so every ratio t/t_final has
# a denominator within the limit_denominator(4096) search
pi_rational = st.tuples(st.integers(1, 64), st.integers(1, 64))


@given(st.lists(pi_rational, min_size=1, max_size=4),
       st.floats(1e-4, 1.0), st.booleans())
def test_commensurate_count_puts_pi_rational_times_on_its_grid(fracs, step, with_zero):
    times = [k / d * math.pi for k, d in fracs] + ([0.0] if with_zero else [])
    t_final = max(times)
    count = _commensurate_count(t_final, times, step)
    assert count >= math.ceil(t_final / step - 1e-12)
    for t in times:
        # the one step-lattice test of the split-step propagator
        assert lattice_steps(t, t_final / count) == round(Fraction(t / t_final)
                                                          .limit_denominator(4096) * count)


@given(count=st.integers(2, 10**7), samples=st.integers(1, 20000))
def test_sample_indices_equal_the_unique_rounded_linspace(count, samples):
    # the adjacent-repeat dedupe of the non-decreasing rounded linspace is
    # np.unique of it, without np.unique's import of numpy.ma
    rounded = np.round(np.linspace(0, count - 1, min(samples, count))).astype(int)
    assert np.array_equal(numerics.sample_indices(count, samples), np.unique(rounded))


@given(st.floats(-100.0, 100.0), st.floats(1e-3, 1e3), st.integers(1, 16))
def test_build_space_grid_is_a_half_open_power_of_two_box(center, half_width, power):
    count = 2 ** power
    grid = build_space_grid(center, half_width, count)
    assert grid.count == count
    assert grid.step == 2.0 * half_width / count
    assert grid.start == center - half_width
    assert grid.points()[-1] == grid.stop
    # the right end center + h is excluded: it would be point ``count``
    assert grid.stop < center + half_width
    assert grid.stop + grid.step == pytest.approx(center + half_width,
                                                  rel=1e-12, abs=1e-12)


@given(st.integers(-2**40, 2**40).filter(
    lambda c: c < 2 or c & (c - 1) or c > numerics.MAX_SAMPLES))
@example(0)
@example(1)
@example(6)
@example(2 * numerics.MAX_SAMPLES)
def test_bad_grid_counts_are_refused_with_exit_2(count):
    with pytest.raises((InvalidCount, TooManySamples)):
        build_space_grid(0.0, 8.0, count)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["snapshot", "--preset", "static", "--times", "0",
                   "--grid-points", str(count), "--half-width", "8"])
    assert rc == 2 and out.getvalue() == "" and err.getvalue().startswith("error: ")


positive = st.floats(min_value=5e-324, allow_infinity=False)
power_of_two = st.integers(1, 24).map(lambda p: 2 ** p)
valid_overrides = st.fixed_dictionaries({}, optional={
    "params": st.fixed_dictionaries({}, optional={"u2": positive, "v": finite}),
    "init": st.fixed_dictionaries({}, optional={
        "a": finite, "b": finite, "alpha": finite, "beta": finite}),
    "train": st.fixed_dictionaries({}, optional={
        "n": st.integers(0, MAX_N), "b0": finite,
        "declared_c0": st.none() | positive}),
    "solver": st.fixed_dictionaries({}, optional={
        "iterations": st.integers(0, 50), "rk4_step": positive}),
    "time": st.fixed_dictionaries({}, optional={
        "t_final": positive, "samples": st.integers(2, 10**6),
        "times": st.lists(st.floats(0.0, allow_infinity=False), max_size=5).map(tuple)}),
    "space": st.one_of(
        st.fixed_dictionaries({"policy": st.just("auto")}, optional={
            "grid_points": st.none() | power_of_two}),
        st.fixed_dictionaries({"policy": st.just("explicit"), "grid_points": power_of_two,
                               "half_width": positive}, optional={"center": finite})),
    "output": st.fixed_dictionaries({}, optional={
        "format": st.sampled_from(["csv", "json"]), "path": st.none() | st.text()}),
})


@given(st.sampled_from(PRESET_NAMES), valid_overrides)
def test_from_dict_round_trips_to_dict(name, overrides):
    cfg = preset(name)
    for group, values in overrides.items():
        cfg = dataclasses.replace(
            cfg, **{group: dataclasses.replace(getattr(cfg, group), **values)})
    assert from_dict(to_dict(cfg)) == cfg


@given(st.text(), st.sampled_from(sorted(_GROUPS)), st.booleans())
def test_from_dict_rejects_unknown_groups_and_keys(name, group, as_group):
    fields = {f.name for f in dataclasses.fields(_GROUPS[group])}
    if as_group:
        assume(name not in _GROUPS)
        data = {name: {}}
    else:
        assume(name not in fields)
        data = {group: {name: 1.0}}
    with pytest.raises(ConfigError, match="unknown"):
        from_dict(data)


# every float field, as (group, key); times is a list of floats
FLOAT_FIELDS = [(group, f.name) for group, cls in sorted(_GROUPS.items())
                for f in dataclasses.fields(cls) if "float" in str(f.type)]


@given(st.sampled_from(FLOAT_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_config_values_are_refused_with_exit_2(key, value):
    group, name = key
    data = {group: {name: [0.0, value] if name == "times" else value}}
    with pytest.raises(ConfigError, match=f"{group}.{name} must be finite"):
        from_dict(data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(data, fh)
        fh.flush()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["classical", "--config", fh.name])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {group}.{name} must be finite")


def _sign_changes_above_threshold(h: np.ndarray) -> int:
    """count_nodes written out on the whole row: sign-bit changes between
    adjacent samples whose |h| exceeds 1e-12 of the row's peak."""
    thr = 1e-12 * float(np.max(np.abs(h), initial=0.0))
    live = h[np.abs(h) > thr]
    return int(np.count_nonzero(np.signbit(live[1:]) != np.signbit(live[:-1])))


# magnitudes around the 1e-12 threshold of a unit peak, zeros of both signs
node_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 1.0000000000000002e-12,
                     -1.0000000000000002e-12, 9.999999999999999e-13, 2e-12, 5e-13]),
    st.floats(-2.0, 2.0), st.floats(-1e-11, 1e-11))


@given(st.lists(st.lists(node_values, max_size=8), max_size=40),
       st.lists(st.integers(0, 400), max_size=6))
@example([[0.5, 0.0, 0.0, -0.0, 0.5], [1.0]], [2])
@example([[1e-13, -1e-13, 1e-13], [1.0]], [1])
def test_count_nodes_in_blocks_equals_the_whole_row(runs, cuts):
    # runs of repeated values make long runs of one sign and of zeros
    h = np.array([v for run in runs for v in run for _ in range(3)], dtype=float)
    whole = count_nodes(h)
    assert whole == _sign_changes_above_threshold(h)
    counter = NodeCount()
    edges = sorted({min(c, len(h)) for c in cuts} | {0, len(h)})
    for a, b in zip(edges[:-1], edges[1:]):
        counter.add(h[a:b])
    assert counter.count() == whole


def _g17_strings(values) -> list[str]:
    """The CSV kernel's text of each value, absent bytes dropped."""
    col = np.asarray(values, dtype=float)
    out = np.empty((len(col), 4), dtype=np.uint64)
    g17.text(col, out)
    return [row[row != 0].tobytes().decode("ascii") for row in out.view(np.uint8)]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       st.lists(st.floats(allow_subnormal=True), max_size=16))
def test_g17_text_is_percent_17g(bits, floats):
    # raw 64-bit patterns reach every exponent, subnormals, -0.0, NaN
    # payloads and the infinities
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist() + floats
    assert _g17_strings(values) == ["%.17g" % v for v in values]


def test_g17_text_sweep_of_decades_and_switches():
    # every power of ten, where the first guess of E is off by one, the
    # switches between fixed and scientific layout, the subnormal and
    # normal edges and the largest double, each with both neighbours
    edges = [float(f"1e{k}") for k in range(-323, 309)] + [
        1e-5, 1e-4, 1e16, 1e17, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 1278675322477191.75]
    values = np.array(edges)
    with np.errstate(over="ignore"):  # past the largest double is infinity
        above = np.nextafter(values, np.inf)
    values = np.concatenate([values, np.nextafter(values, 0), above])
    values = np.concatenate([values, -values]).tolist()
    assert _g17_strings(values) == ["%.17g" % v for v in values]
    # an exact halfway case rounds to even
    assert _g17_strings([1278675322477191.75]) == ["1278675322477191.8"]


# Numeric flags of each command, as (flag, kind): "int" and "float" values
# are parsed by argparse, "time" values by the pi-unit grammar.
COMMON_FLAGS = [("--n", "int"), ("--b0", "float"), ("--declared-c0", "float"),
                ("--iterations", "int"), ("--rk4-step", "float"), ("--grid-points", "int"),
                ("--half-width", "float"), ("--center", "float"), ("--times", "time")]
HORIZON_FLAGS = [("--t-final", "time"), ("--samples", "int")]
COMMAND_FLAGS = {"classical": COMMON_FLAGS + HORIZON_FLAGS,
                 "snapshot": COMMON_FLAGS,
                 "series": COMMON_FLAGS + HORIZON_FLAGS,
                 "verify": COMMON_FLAGS + HORIZON_FLAGS,
                 "oracle-compare": COMMON_FLAGS + [("--dt", "time"), ("--tolerance", "float")]}
VALUE_TEXT = {
    # every float, NaN, the infinities and subnormals included
    "float": st.floats().map(repr),
    "time": st.tuples(st.floats(), st.booleans()).map(
        lambda v: repr(v[0]) + ("pi" if v[1] else "")),
    "int": st.one_of(st.integers(-2**64, 2**64), st.integers(0, 70).map(lambda p: 2**p)),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), min_size=1, max_size=3,
                          unique=True))
    # --flag=value, so that argparse reads a negative value as a value
    argv = [command, "--preset", draw(st.sampled_from(PRESET_NAMES))]
    return argv + [f"{flag}={draw(VALUE_TEXT[kind])}" for flag, kind in flags]


@pytest.mark.filterwarnings("ignore")  # numpy overflow in the orbits blown up below
@settings(max_examples=200, deadline=None)
@given(command_lines())
# steps that round to 0.0: space grid, aliasing bound, Picard grid
@example(["snapshot", "--preset", "fig2-soliton", "--half-width=5e-324",
          "--grid-points=1024", "--times=0"])
@example(["oracle-compare", "--preset", "fig3-collapse", "--grid-points=1024",
          "--half-width=1e-244"])
@example(["verify", "--preset", "fig3-collapse", "--t-final=5e-324", "--rk4-step=8.5e221",
          "--samples=1000"])
# b0^2/c0 past the float range
@example(["snapshot", "--preset", "static", "--b0=1e200", "--times=0"])
# RK4 steps far past the stability limit, refused before the orbit
# blows up (and overflows the propagation grid's demand downstream)
@example(["verify", "--preset", "static", "--rk4-step=8.979213989234729e+64",
          "--iterations=4267", "--t-final=8.979213989234729e+64"])
@example(["verify", "--preset", "fig1-rho", "--samples=1125899906842624",
          "--t-final=1.8096195390552148e+16pi", "--rk4-step=1.8096195390552148e+16"])
@example(["classical", "--preset", "static", "--rk4-step=8.98e64", "--t-final=8.98e64"])
def test_every_command_line_exits_0_1_or_2(argv):
    # lowered caps keep each example cheap; what they refuse is refused
    # by the same checks as at the real caps
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "MAX_SAMPLES", 2**15)
        mp.setattr(splitstep, "MAX_POINT_STEPS", 2**23)
        mp.setattr(mathieu, "MAX_ITERATION_SAMPLES", 2**22)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert re.search(r"^error: \S", err.getvalue(), re.M), err.getvalue()
