"""Generic numerical kernels shared by all other modules.

Two quadratures with separate jobs: cumulative Simpson for time
integrals, and the rectangle rule ``field_integral`` for every spatial
integral of a decaying field (norms, overlaps, distances).  Also
fourth-order central differences, uniform-grid construction with its
sample cap ``MAX_SAMPLES``, the time lattice of a run (``commensurate_count``
and ``time_lattice``), even sub-sampling (``sample_indices``), and
``residual_maxima``, the one windowed reduction of all residual checks
(RK4 step matrices live in ``mathieu``).  The kernels take plain arrays
and their ``step``; ``UniformGrid`` describes an axis and holds no values.
Everything here is a pure function of its inputs; the grid record is frozen.
Quadrature sums use numpy's pairwise summation, so results do not depend
on any parallel reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

# Columns per block of the verify battery's state checks.
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


def commensurate_count(t_final: float, times, step: float,
                       what: str = "the classical solve") -> int:
    """Step count n so the grid t_final/n hits every requested time exactly
    whenever times/t_final are small rationals (they are for pi-unit
    inputs); otherwise the plain ceiling count.  A count past the cap, or a
    step of 0.0, is refused (TooManySamples, naming ``what``) before it is rounded."""
    require_samples(t_final / step + 1.0 if step else math.inf, what)
    n = max(1, math.ceil(t_final / step - 1e-12))
    denom = 1
    for t in times:
        if t == 0.0 or t == t_final:
            continue
        frac = Fraction(t / t_final).limit_denominator(4096)
        if abs(float(frac) - t / t_final) > 1e-12:
            return n
        denom = math.lcm(denom, frac.denominator)
    return denom * math.ceil(n / denom)


def time_lattice(t_final: float, count: int,
                 what: str = "the classical solve") -> UniformGrid:
    """The grid of ``count`` steps of t_final/count from t = 0, on which
    every time that ``commensurate_count`` gave ``count`` for is a sample.
    A count past the cap is refused here, before anything is allocated."""
    require_samples(count + 1, what)
    return UniformGrid(0.0, require_step(t_final / count, what), count + 1)


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


def central_diff(y: np.ndarray, step: float, order: int = 1) -> np.ndarray:
    """Fourth-order finite-difference derivative of samples ``y`` spaced
    ``step`` apart (Fornberg, Math. Comp. 51, 699 (1988)).

    order=1: first derivative, 5-point central interior; the two rows at
    each end take 5-point one-sided stencils.
    order=2: second derivative, 5-point central interior; the two rows at
    each end take 6-point one-sided stencils.
    Every row, end rows included, is fourth-order accurate.
    """
    n = y.shape[-1]
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if n < order + 4:
        raise TooFewPoints(f"derivative of order {order} needs >= {order + 4} samples")
    d = np.empty_like(y, dtype=np.result_type(y, float))
    if order == 1:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * step)
    else:
        d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
                   + 16.0 * y[3:-1] - y[4:]) / (12.0 * step * step)
    for end, s in ((0, 1), (-1, -1)):  # each end, its samples counted inwards
        u = [y[end + s * j] for j in range(order + 4)]
        if order == 1:  # mirrored at the right end, so the sign flips
            d[end] = s * (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2]
                          + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * step)
            d[end + s] = s * (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2]
                              - 6.0 * u[3] + u[4]) / (12.0 * step)
        else:
            d[end] = (45.0 * u[0] - 154.0 * u[1] + 214.0 * u[2]
                      - 156.0 * u[3] + 61.0 * u[4] - 10.0 * u[5]) / (12.0 * step * step)
            d[end + s] = (10.0 * u[0] - 15.0 * u[1] - 4.0 * u[2]
                          + 14.0 * u[3] - 6.0 * u[4] + u[5]) / (12.0 * step * step)
    return d


def residual_maxima(windows, relative: bool) -> dict[str, float]:
    """Max |residual| of each equation over ``windows``, pairs ``(keep,
    equations)``: ``equations`` yields ``(name, (residual, *terms))`` on one
    window of samples one equation at a time, and ``keep`` slices the rows
    that window owns, so memory is bounded by one window's temporaries of one
    equation.  Raw maxima are merged across windows; ``relative`` then
    divides each residual by its equation's largest |term| (or tiny).
    NonFiniteValue when a residual or term holds NaN or infinity: NaN
    survives ``np.maximum``, so the merged maxima see every row.
    A whole array is one window, ``(slice(None), equations)``; verify streams
    a trajectory's windows as it is solved."""
    worst = {}
    for keep, equations in windows:
        for name, arrays in equations:
            maxima = [np.max(np.abs(x[keep])) for x in arrays]
            del arrays  # freed before the next equation is built
            worst[name] = np.maximum(worst.get(name, 0.0), maxima)
    out = {}
    for name, maxima in worst.items():
        if not np.all(np.isfinite(maxima)):
            raise NonFiniteValue(f"the {name} residual or its terms hold NaN or infinity")
        resid, *terms = maxima
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
