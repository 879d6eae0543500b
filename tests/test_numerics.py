"""Generic kernels: grids, RK4, Simpson quadrature, central differences."""

import math

import numpy as np
import pytest

from wavetrains import (
    InvalidCount,
    NonFiniteValue,
    TooFewPoints,
    TooManySamples,
    UniformGrid,
    build_space_grid,
    central_diff,
    cumulative_simpson,
    is_power_of_two,
)
from wavetrains import numerics
from wavetrains.errors import GridMismatch
from wavetrains.numerics import halo_windows, residual_maxima

from references import QuadratureOrderWarning, simpson
from rk4_reference import rk4_integrate


# ---------------------------------------------------------------- grids

def test_uniform_grid_points_are_index_exact():
    grid = UniformGrid(start=0.0, step=0.1, count=11)
    expected = 0.0 + np.arange(11) * 0.1
    assert np.array_equal(grid.points(), expected)
    assert grid.stop == expected[-1]


def test_uniform_grid_rejects_degenerate_input():
    with pytest.raises(InvalidCount):
        UniformGrid(start=0.0, step=0.1, count=1)
    with pytest.raises(ValueError):
        UniformGrid(start=0.0, step=0.0, count=8)
    with pytest.raises(ValueError):
        UniformGrid(start=0.0, step=-1.0, count=8)


def test_index_of_hits_and_misses():
    grid = UniformGrid(start=0.0, step=0.25, count=9)
    assert grid.index_of(0.75) == 3
    assert grid.index_of(grid.stop) == 8
    with pytest.raises(GridMismatch):
        grid.index_of(0.30)
    with pytest.raises(GridMismatch):
        grid.index_of(2.25)  # past the last point


# ---------------------------------------------------------------- RK4

def test_rk4_constant_rhs_stays_put():
    grid = UniformGrid(start=0.0, step=0.1, count=21)
    ys = rk4_integrate(lambda t, y: np.zeros_like(y), [3.0], grid)
    assert np.array_equal(ys[:, 0], np.full(21, 3.0))


def test_rk4_exponential_growth():
    grid = UniformGrid(start=0.0, step=1e-3, count=1001)
    ys = rk4_integrate(lambda t, y: y, [1.0], grid)
    assert abs(ys[-1, 0] - math.e) < 1e-10


def test_rk4_harmonic_oscillator_period():
    two_pi = 2.0 * math.pi
    n = 6284
    grid = UniformGrid(start=0.0, step=two_pi / n, count=n + 1)
    ys = rk4_integrate(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], grid)
    assert abs(ys[-1, 0] - 1.0) < 1e-9
    assert abs(ys[-1, 1]) < 1e-9


def test_rk4_energy_conservation_order():
    # fourth-order method: halving the step shrinks the per-period energy
    # drift by roughly 2^4
    def drift(step_count):
        grid = UniformGrid(start=0.0, step=2.0 * math.pi / step_count,
                           count=step_count + 1)
        ys = rk4_integrate(lambda t, y: np.array([y[1], -4.0 * y[0]]),
                           [1.0, 0.0], grid)
        energy = 0.5 * (ys[:, 1] ** 2 + 4.0 * ys[:, 0] ** 2)
        return float(np.max(np.abs(energy - energy[0])))

    ratio = drift(512) / drift(1024)
    assert ratio > 8.0


def test_rk4_flags_nonfinite_states():
    grid = UniformGrid(start=0.0, step=0.1, count=11)

    def rhs(t, y):
        return np.array([np.inf]) if t > 0.45 else np.array([0.0])

    with pytest.raises(NonFiniteValue):
        rk4_integrate(rhs, [1.0], grid)


# ---------------------------------------------------------------- Simpson

def test_simpson_constant_is_exact():
    grid = UniformGrid(start=0.0, step=0.01, count=101)
    assert abs(simpson(np.ones(101), grid.step) - 1.0) < 1e-14


def test_simpson_exact_through_cubics():
    grid = UniformGrid(start=0.0, step=0.01, count=101)
    x = grid.points()
    assert abs(simpson(x * x, grid.step) - 1.0 / 3.0) < 1e-12
    assert abs(simpson(x ** 3, grid.step) - 0.25) < 1e-12


def test_simpson_gaussian_reference():
    grid = UniformGrid(start=-8.0, step=16.0 / 2000, count=2001)
    x = grid.points()
    val = simpson(np.exp(-x * x), grid.step)
    assert abs(val - math.sqrt(math.pi)) < 1e-10


def test_simpson_too_few_points():
    with pytest.raises(TooFewPoints):
        simpson(np.ones(2), 1.0)


def test_simpson_even_count_warns_and_still_integrates():
    grid = UniformGrid(start=0.0, step=1.0 / 99, count=100)
    x = grid.points()
    with pytest.warns(QuadratureOrderWarning):
        val = simpson(x * x, grid.step)
    assert abs(val - (1.0 / 3.0)) < 1e-4  # trapezoid tail degrades, not breaks


def test_cumulative_simpson_tracks_antiderivative():
    n = 301
    step = 3.0 / (n - 1)
    t = np.arange(n) * step
    running = cumulative_simpson(np.cos(t), step)
    assert running[0] == 0.0
    assert np.max(np.abs(running - np.sin(t))) < 1e-9
    # even count: last point falls back to one trapezoid interval
    running_even = cumulative_simpson(np.cos(t[:-1]), step)
    assert np.max(np.abs(running_even - np.sin(t[:-1]))) < 1e-7


def test_cumulative_simpson_consistent_with_simpson(rng):
    n = 257
    step = 0.02
    grid = UniformGrid(start=0.0, step=step, count=n)
    t = grid.points()
    coeffs = rng.normal(size=4)
    y = (coeffs[0] + coeffs[1] * np.sin(t) + coeffs[2] * np.cos(2 * t)
         + coeffs[3] * t)
    running = cumulative_simpson(y, step)
    total = simpson(y, step)
    assert abs(running[-1] - total) < 1e-12


# ------------------------------------------------------ finite differences

def test_central_diff_linear_exact():
    grid = UniformGrid(start=0.0, step=0.1, count=21)
    d = central_diff(grid.points(), grid.step, order=1)
    assert type(d) is np.ndarray
    assert np.allclose(d, 1.0, atol=1e-12)


def test_central_diff_second_derivative_quadratic_exact():
    grid = UniformGrid(start=-1.0, step=0.1, count=21)
    x = grid.points()
    d2 = central_diff(x * x, grid.step, order=2)
    assert np.allclose(d2, 2.0, atol=1e-9)


def test_central_diff_fourth_order_convergence():
    # every row, the one-sided end rows included, is fourth order
    def error(n, order):
        grid = UniformGrid(start=0.0, step=3.0 / n, count=n + 1)
        x = grid.points()
        d = central_diff(np.sin(x), grid.step, order=order)
        exact = np.cos(x) if order == 1 else -np.sin(x)
        return float(np.max(np.abs(d - exact)))

    for order in (1, 2):
        assert error(150, order) / error(300, order) > 12.0  # order >= 3.58


def test_central_diff_guard_rails():
    with pytest.raises(TooFewPoints):
        central_diff(np.zeros(4), 1.0, order=1)
    with pytest.raises(TooFewPoints):
        central_diff(np.zeros(5), 1.0, order=2)
    with pytest.raises(ValueError):
        central_diff(np.zeros(8), 1.0, order=3)
    assert central_diff(np.zeros(5), 1.0, order=1).shape == (5,)
    assert central_diff(np.zeros(6), 1.0, order=2).shape == (6,)


# ------------------------------------------------------------ space grids

def test_build_space_grid_four_points():
    grid = build_space_grid(0.0, 1.0, 4)
    assert np.allclose(grid.points(), [-1.0, -0.5, 0.0, 0.5], atol=1e-15)


def test_build_space_grid_offset_box():
    grid = build_space_grid(5.0, 10.0, 1024)
    assert grid.start == -5.0
    assert grid.step == 20.0 / 1024
    assert grid.count == 1024


def test_build_space_grid_rejects_bad_input():
    with pytest.raises(InvalidCount):
        build_space_grid(0.0, 1.0, 1000)
    with pytest.raises(ValueError):
        build_space_grid(0.0, 0.0, 64)


def test_build_space_grid_refuses_oversized_count(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_SAMPLES", 1024)
    assert build_space_grid(0.0, 1.0, 1024).count == 1024
    with pytest.raises(TooManySamples):
        build_space_grid(0.0, 1.0, 2048)


@pytest.mark.parametrize("count", [5, 999, 1000, 1001, 3003, 3004, 3999])
def test_halo_windows_partition_the_grid(monkeypatch, count):
    monkeypatch.setattr(numerics, "RESIDUAL_BLOCK", 1000)
    grid = UniformGrid(0.25, 0.1, count)
    owned = []
    for rows, keep, t in halo_windows(grid):
        assert np.array_equal(t, grid.points()[rows])
        assert t.size >= 5
        # the halo is two samples on each inner side, none at the true ends
        assert keep.start == (0 if rows.start == 0 else 2)
        assert rows.stop - keep.stop - rows.start == (0 if rows.stop == count else 2)
        owned.extend(range(rows.start + keep.start, rows.start + keep.stop))
    assert owned == list(range(count))


@pytest.mark.parametrize("column", [0, 1], ids=["residual", "term"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_residual_maxima_refuses_non_finite_values(column, bad):
    # the bad value sits in one owned row of the second of three windows;
    # the other windows' maxima are finite, so the merge must carry it
    def windows(poisoned):
        for w in range(3):
            arrays = [np.linspace(-1.0, 1.0, 8) * (w + 1), np.full(8, 2.0)]
            if poisoned and w == 1:
                arrays[column][5] = bad
            yield slice(2, 6), iter([("x", tuple(arrays))])

    for relative in (False, True):
        assert math.isfinite(residual_maxima(windows(False), relative)["x"])
        with pytest.raises(NonFiniteValue, match="the x residual"):
            residual_maxima(windows(True), relative)


def test_is_power_of_two():
    for k in range(0, 16):
        assert is_power_of_two(1 << k)
    for bad in (0, -4, 3, 6, 12, 1000):
        assert not is_power_of_two(bad)
