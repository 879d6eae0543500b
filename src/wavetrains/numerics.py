"""Generic numerical kernels shared by all other modules.

Two quadratures with separate jobs: cumulative Simpson for time
integrals, and the rectangle rule ``field_integral`` for every spatial
integral of a decaying field (norms, overlaps, distances).  Also
fourth-order central differences, uniform-grid construction with its
sample cap ``MAX_SAMPLES``, even sub-sampling (``sample_indices``), and
``residual_maxima``, the one halo-windowed sweep of all residual checks
(RK4 step matrices live in ``mathieu``).
Everything here is a pure function of its inputs; the record types are frozen.
Quadrature sums use numpy's pairwise summation, so results do not depend
on any parallel reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    GridMismatch,
    InvalidCount,
    NonFiniteValue,
    TooFewPoints,
    TooManySamples,
)

# Largest sample count of one time or space axis: 2^24 samples is about
# 2 GB at the classical solver's 128 B per step.
MAX_SAMPLES = 2**24

# Samples per window of a residual sweep (``halo_windows``), and columns
# per block of the verify battery's state checks.
RESIDUAL_BLOCK = 2**16


def require_samples(count: float, what: str):
    """Raise TooManySamples, before anything is allocated, when ``count``
    (possibly non-integer or infinite) exceeds MAX_SAMPLES."""
    if not count <= MAX_SAMPLES:
        raise TooManySamples(
            f"{what} needs {count:.4g} samples, more than the cap of {MAX_SAMPLES}"
        )


def require_step(step: float, what: str) -> float:
    """``step``, a quotient of positive values; ConfigError when it rounds
    to 0.0, before a grid is built on it."""
    if not step > 0:
        raise ConfigError(f"the step of {what} rounds to {step!r}: its span is too short "
                          "for its points")
    return step


def sample_indices(count: int, samples: int) -> np.ndarray:
    """Up to ``samples`` indices spread evenly over ``count``, ends included."""
    idx = np.round(np.linspace(0, count - 1, min(samples, count))).astype(int)
    # non-decreasing, so repeats are adjacent (np.unique would import numpy.ma)
    return idx[np.r_[True, idx[1:] != idx[:-1]]]


@dataclass(frozen=True)
class UniformGrid:
    """Uniformly spaced axis (time or space).

    Point i is ``start + i*step`` computed directly from the index, never
    by accumulation, so there is no drift across long grids.
    """

    start: float
    step: float
    count: int

    def __post_init__(self):
        if int(self.count) != self.count or self.count < 2:
            raise InvalidCount(f"grid needs an integer count >= 2, got {self.count}")
        if not (self.step > 0):
            raise ValueError(f"grid step must be positive, got {self.step}")

    @property
    def stop(self) -> float:
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + np.arange(self.count) * self.step

    def index_of(self, value: float) -> int:
        """Index of the grid point equal to ``value`` (within 1e-9)."""
        i = int(round((value - self.start) / self.step))
        if i < 0 or i >= self.count or abs(self.start + i * self.step - value) > 1e-9:
            raise GridMismatch(f"{value} is not a point of this grid")
        return i


@dataclass(frozen=True)
class SampledFunction:
    """Values of a function on a UniformGrid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.count,):
            raise GridMismatch(
                f"values shape {vals.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("sampled values contain NaN or infinity")


def field_integral(y: np.ndarray, step: float):
    """Rectangle-rule integral sum(y) * step over the last axis.

    The one quadrature for spatial integrals of decaying fields: norms,
    overlaps and distances.  It is spectrally accurate for grid-resolved
    states whose tails have decayed at the grid edges (unlike Simpson,
    whose alternating weights pick up near-Nyquist content on marginal
    grids), and the squared norm it gives is the exact invariant of the
    split-step scheme (Parseval).
    """
    return np.sum(y, axis=-1) * step


def cumulative_simpson(y: np.ndarray, step: float) -> np.ndarray:
    """Running integral from the first sample, Simpson-grade throughout.

    Even-index endpoints use composite Simpson over whole pairs; an
    odd-index endpoint adds the integral of the interpolating parabola
    over the half pair, (step/12)*(5*f0 + 8*f1 - f2), keeping O(step^4)
    local accuracy at every output point.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    out = np.zeros_like(y, dtype=np.result_type(y, float))
    if n < 2:
        return out
    if n == 2:
        out[..., 1] = 0.5 * step * (y[..., 0] + y[..., 1])
        return out
    pair = (step / 3.0) * (y[..., :-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2])
    even = np.cumsum(pair, axis=-1)
    out[..., 2::2] = even
    # odd endpoint = Simpson up to the preceding even index + half-pair term
    nodd = (n - 1) // 2  # odd indices with a full parabola to their right
    half = (step / 12.0) * (5.0 * y[..., 0:2 * nodd:2]
                            + 8.0 * y[..., 1:2 * nodd + 1:2]
                            - y[..., 2:2 * nodd + 2:2])
    prev = np.concatenate([np.zeros_like(even[..., :1]), even], axis=-1)
    out[..., 1:2 * nodd:2] = prev[..., :nodd] + half
    if n % 2 == 0:
        # final point after an even count: trapezoid on the last interval
        out[..., -1] = out[..., -2] + 0.5 * step * (y[..., -2] + y[..., -1])
    return out


def central_diff(samples: SampledFunction, order: int = 1) -> SampledFunction:
    """Fourth-order finite-difference derivative of sampled values
    (Fornberg, Math. Comp. 51, 699 (1988)).

    order=1: first derivative, 5-point central interior; the two rows at
    each end take 5-point one-sided stencils.
    order=2: second derivative, 5-point central interior; the two rows at
    each end take 6-point one-sided stencils.
    Every row, end rows included, is fourth-order accurate.
    """
    y = samples.values
    h = samples.grid.step
    n = y.shape[-1]
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if n < order + 4:
        raise TooFewPoints(f"derivative of order {order} needs >= {order + 4} samples")
    d = np.empty_like(y, dtype=np.result_type(y, float))
    if order == 1:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    else:
        d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
                   + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
    for end, s in ((0, 1), (-1, -1)):  # each end, its samples counted inwards
        u = [y[end + s * j] for j in range(order + 4)]
        if order == 1:  # mirrored at the right end, so the sign flips
            d[end] = s * (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2]
                          + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
            d[end + s] = s * (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2]
                              - 6.0 * u[3] + u[4]) / (12.0 * h)
        else:
            d[end] = (45.0 * u[0] - 154.0 * u[1] + 214.0 * u[2]
                      - 156.0 * u[3] + 61.0 * u[4] - 10.0 * u[5]) / (12.0 * h * h)
            d[end + s] = (10.0 * u[0] - 15.0 * u[1] - 4.0 * u[2]
                          + 14.0 * u[3] - 6.0 * u[4] + u[5]) / (12.0 * h * h)
    return SampledFunction(samples.grid, d)


def halo_windows(grid: UniformGrid):
    """Windows of about RESIDUAL_BLOCK samples over ``grid`` for stencils
    five points wide, as (rows, keep, t, sub): ``rows`` slices the window
    from the full arrays, ``keep`` its owned rows from the window (the rest
    is a two-sample halo on each inner side), ``t`` its time points computed
    as ``grid.points()`` does, ``sub`` its grid for ``central_diff``.  A
    remainder under 6 samples joins the last window, so one-sided end
    stencils land on halo rows except at the grid's true ends: kept rows
    equal a whole-grid evaluation bit for bit.
    """
    count = grid.count
    starts = list(range(0, count, RESIDUAL_BLOCK))
    if len(starts) > 1 and count - starts[-1] < 6:
        starts.pop()
    ends = starts[1:] + [count]
    for a, b in zip(starts, ends):
        lo, hi = max(a - 2, 0), min(b + 2, count)
        t = grid.start + np.arange(lo, hi) * grid.step
        yield (slice(lo, hi), slice(a - lo, b - lo), t,
               UniformGrid(float(t[0]), grid.step, hi - lo))


def residual_maxima(grid: UniformGrid, window, relative: bool) -> dict[str, float]:
    """Max |residual| of each equation over ``grid``, swept over ``halo_windows``.
    ``window(rows, t, sub)`` yields ``(name, (residual, *terms))`` one equation
    at a time, so memory is bounded by one window's temporaries of one equation;
    ``relative`` divides each residual by its equation's largest |term| (or tiny).
    A sweep of every m-th sample is one of a trajectory sliced by ``mathieu.every``."""
    worst = {}
    for rows, keep, t, sub in halo_windows(grid):
        for name, arrays in window(rows, t, sub):
            maxima = [np.max(np.abs(x[keep])) for x in arrays]
            worst[name] = np.maximum(worst.get(name, 0.0), maxima)
    out = {}
    for name, (resid, *terms) in worst.items():
        out[name] = float(resid)
        if relative:
            out[name] /= max(float(max(terms)), np.finfo(float).tiny)
    return out


def is_power_of_two(count: int) -> bool:
    return count >= 1 and (count & (count - 1)) == 0


def build_space_grid(center: float, half_width: float, count: int) -> UniformGrid:
    """Symmetric uniform grid about ``center`` with a power-of-two count.

    The right endpoint is excluded (count points over [center-h, center+h)),
    so the same grid serves FFT-based propagation without duplication.
    """
    if not (half_width > 0):
        raise ValueError(f"half_width must be positive, got {half_width}")
    if not is_power_of_two(count) or count < 2:
        raise InvalidCount(f"space grid count must be a power of two >= 2, got {count}")
    require_samples(count, "the space grid")
    step = require_step(2.0 * half_width / count, "the space grid")
    return UniformGrid(start=center - half_width, step=step, count=count)
