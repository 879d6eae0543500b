"""Exact wave-packet-train states built on a classical polar trajectory.

The n-th state is  psi_n = R_n exp(i Theta_n)  with

    R_n     = [sqrt(c0) / (sqrt(pi) 2^n n! rho)]^(1/2) H_n(xi) exp(-xi^2/2),
    xi      = sqrt(c0) x / rho - (b0/sqrt(c0)) cos(theta),
    Theta_n = drho x^2/(2 rho) - (b0 x/rho) sin(theta)
              + (b0^2/(4 c0)) sin(2 theta) - (1/2 + n) theta,

where (rho, theta) is the polar form of the classical solution and
c0 = rho^2 dtheta its first integral.  The density has n+1 humps sharing
one moving, breathing envelope; the hump pattern's center follows the
classical orbit x_c = (b0/c0) phi1.

Each formula is written once and takes scalars or equal-shape arrays of
the polar samples: ``coefficients`` (the ansatz b, c, e, f, a_n),
``_phase_rate`` (dTheta_n/dt) and ``_hermite_rows`` (the Hermite
recurrence).  Every spatial integral is the rectangle rule: a sum times
the step, by ``numerics.field_integral`` or, for all overlaps of one
Hermite table at once, by the matrix product of ``gram_matrix``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    NegativeIndex,
    NonPositiveC0,
    NormDeficitWarning,
)
from .mathieu import PolarTrajectory
from .numerics import UniformGrid, build_space_grid, central_diff, field_integral
from .numerics import SampledFunction, residual_maxima

NORM_TOL = 1e-6  # |norm - 1| beyond which a field grid is flagged deficient
XI_UNDERFLOW = 38.7  # exp(-xi^2/2), so every Hermite row, is 0.0 from |xi| = 38.61


@dataclass(frozen=True)
class TrainSpec:
    """Quantum number n, free center constant b0, and the trajectory's
    first integral c0 (always the computed one, never user-declared)."""

    n: int
    b0: float
    c0: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise NegativeIndex(f"quantum number must be a non-negative integer, got {self.n}")
        if not (self.c0 > 0):
            raise NonPositiveC0(
                f"first integral c0 must be strictly positive for a real "
                f"width parameter e = sqrt(dtheta); got {self.c0}"
            )

    @property
    def a0(self) -> float:
        """Normalization constant [sqrt(c0)/(sqrt(pi) 2^n n!)]^(1/2),
        recomputed on demand (log-gamma form, stable up to n ~ 200)."""
        return math.exp(0.5 * (0.5 * math.log(self.c0) - 0.5 * math.log(math.pi)
                               - self.n * math.log(2.0) - math.lgamma(self.n + 1)))


class CoefficientSet(NamedTuple):
    """The time-dependent coefficients of the test-function ansatz: complex
    b, Riccati variable c and a_n, real width parameter e > 0 and shift f;
    each a scalar or an array of the samples' shape."""

    b: complex
    c: complex
    e: float
    f: float
    a_n: complex


@dataclass(frozen=True)
class TrainFrame:
    """Everything needed to evaluate psi_n at one time."""

    t: float
    rho: float
    theta: float
    drho: float
    spec: TrainSpec


@dataclass(frozen=True)
class FieldGrid:
    """Complex wavefunction samples on a uniform spatial grid at one time.

    ``norm`` is the rectangle-rule integral of |psi|^2 on the grid
    (``field_integral``), computed here and nowhere else; ``norm_deficit``
    flags |norm - 1| > NORM_TOL (grid too small or too coarse for the
    state)."""

    grid: UniformGrid
    t: float
    values: np.ndarray
    norm: float = field(init=False)
    norm_deficit: bool = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        norm = float(field_integral(np.abs(values) ** 2, self.grid.step))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "norm_deficit", abs(norm - 1.0) > NORM_TOL)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _hermite_rows(nmax: int, xi: np.ndarray, row) -> np.ndarray:
    """Write h_0 .. h_nmax into ``row(0)`` .. ``row(nmax)``, buffers of
    ``xi``'s shape, by the numerically stable scaled three-term recurrence
    h_{k+1} = xi sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}, and return
    ``row(nmax)``.  Step k+1 reads row k-1 before it writes, so ``row(k+1)``
    may hand out the buffer of h_{k-1} again; no overflow for n <= 200,
    |xi| <= 50 (far tails underflow harmlessly to zero)."""
    if nmax < 0:
        raise NegativeIndex(f"function index must be >= 0, got {nmax}")
    h_prev = row(0)
    np.multiply(xi, -0.5, out=h_prev)
    h_prev *= xi
    np.exp(h_prev, out=h_prev)
    h_prev *= np.pi ** -0.25
    if nmax == 0:
        return h_prev
    h = row(1)
    np.multiply(xi, math.sqrt(2.0), out=h)
    h *= h_prev
    scratch = np.empty_like(xi)
    for k in range(1, nmax):
        np.multiply(h_prev, math.sqrt(k / (k + 1.0)), out=scratch)
        h_next = row(k + 1)
        np.multiply(xi, math.sqrt(2.0 / (k + 1)), out=h_next)
        h_next *= h
        h_next -= scratch
        h, h_prev = h_next, h
    return h


def hermite_scaled(n: int, xi):
    """Normalized Hermite function h_n(xi) = H_n(xi) e^(-xi^2/2) / sqrt(sqrt(pi) 2^n n!),
    the last row of ``_hermite_rows`` (two alternating row buffers)."""
    xi = np.asarray(xi, dtype=float)
    buffers = (np.empty_like(xi), np.empty_like(xi))
    h = _hermite_rows(n, xi, lambda k: buffers[k % 2])
    return h if h.ndim else float(h)


def hermite_table(nmax: int, xi, out: np.ndarray | None = None) -> np.ndarray:
    """h_0..h_nmax stacked along the first axis (one recurrence pass,
    written in place into ``out``, if given, or a new array)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = np.empty((max(nmax, 0) + 1,) + xi.shape) if out is None else out
    _hermite_rows(nmax, xi, table.__getitem__)
    return table


def live_window(frame: TrainFrame, grid: UniformGrid) -> slice:
    """Index slice of ``grid`` outside which |xi(x)| >= XI_UNDERFLOW, so every
    h_m(xi(x)) there is exactly 0.0: from the affine xi(x) in closed form,
    widened by 2 samples, and empty when the state lies off the grid."""
    sc = math.sqrt(frame.spec.c0)
    f = (frame.spec.b0 / sc) * math.cos(frame.theta)
    ends = ((f + np.array([-XI_UNDERFLOW, XI_UNDERFLOW])) * frame.rho / sc
            - grid.start) / grid.step
    lo, hi = np.clip([np.ceil(ends[0]) - 2, np.floor(ends[1]) + 3], 0, grid.count)
    return slice(int(lo), int(max(hi, lo)))


def train_frame(ptraj: PolarTrajectory, spec: TrainSpec, t: float) -> TrainFrame:
    """Frame at a sampled time of the polar trajectory."""
    i = ptraj.grid.index_of(t)
    return TrainFrame(t=float(ptraj.grid.start + i * ptraj.grid.step),
                      rho=float(ptraj.rho[i]), theta=float(ptraj.theta[i]),
                      drho=float(ptraj.drho[i]), spec=spec)


def xi_of(frame: TrainFrame, x):
    """Dimensionless train coordinate xi = sqrt(c0) x / rho - (b0/sqrt(c0)) cos(theta)."""
    s = frame.spec
    sc = math.sqrt(s.c0)
    return sc * np.asarray(x, dtype=float) / frame.rho - (s.b0 / sc) * math.cos(frame.theta)


def coefficients(spec: TrainSpec, rho, theta, drho, dtheta) -> CoefficientSet:
    """Ansatz coefficients from polar samples (scalars or equal-shape arrays):

    b = b0 e^(-i theta)/rho,  c = dtheta/2 - i drho/(2 rho),
    e = sqrt(c0)/rho (= sqrt(dtheta)),  f = (b0/sqrt(c0)) cos theta,
    a_n = (A0/sqrt(rho)) exp{-i[(1/2+n) theta - (b0^2/(4 c0)) sin 2 theta]}.
    """
    sc = math.sqrt(spec.c0)
    phase = (0.5 + spec.n) * theta - (spec.b0**2 / (4.0 * spec.c0)) * np.sin(2.0 * theta)
    return CoefficientSet(b=spec.b0 * np.exp(-1j * theta) / rho,
                          c=0.5 * dtheta - 0.5j * drho / rho,
                          e=sc / rho,
                          f=(spec.b0 / sc) * np.cos(theta),
                          a_n=spec.a0 / np.sqrt(rho) * np.exp(-1j * phase))


def amplitude(frame: TrainFrame, x):
    """Signed real amplitude R_n(x, t) = c0^(1/4) rho^(-1/2) h_n(xi)."""
    s = frame.spec
    return s.c0**0.25 / math.sqrt(frame.rho) * hermite_scaled(s.n, xi_of(frame, x))


def phase(frame: TrainFrame, x):
    """Phase Theta_n(x, t) of the state."""
    s = frame.spec
    x = np.asarray(x, dtype=float)
    return (frame.drho * x * x / (2.0 * frame.rho)
            - (s.b0 * x / frame.rho) * math.sin(frame.theta)
            + (s.b0**2 / (4.0 * s.c0)) * math.sin(2.0 * frame.theta)
            - (0.5 + s.n) * frame.theta)


def psi(frame: TrainFrame, x):
    """Normalized state psi_n(x, t) = R_n exp(i Theta_n)."""
    return amplitude(frame, x) * np.exp(1j * phase(frame, x))


def psi_on_grid(frame: TrainFrame, grid: UniformGrid) -> FieldGrid:
    """Vectorized psi over a grid, with its rectangle-rule norm recorded.

    Warns (NormDeficitWarning) when the FieldGrid flags |norm - 1| >
    NORM_TOL, which indicates the grid does not cover or resolve the
    state."""
    field_grid = FieldGrid(grid=grid, t=frame.t, values=psi(frame, grid.points()))
    if field_grid.norm_deficit:
        warnings.warn(
            f"grid norm {field_grid.norm:.6g} differs from 1 by more than {NORM_TOL:g}; "
            "the grid is too small or too coarse for this state",
            NormDeficitWarning,
            stacklevel=2,
        )
    return field_grid


def gram_matrix(frame: TrainFrame, table: np.ndarray, step: float) -> np.ndarray:
    """G[m, n] = int R_m R_n dx by the rectangle rule for the rows
    h_m(xi(x)) of ``table``, as one matrix product.

    R_m = c0^(1/4) rho^(-1/2) h_m(xi) and Theta_n - Theta_m = -(n - m) theta
    is x-independent, so |<m|n>| = |G[m, n]|; and |psi_m|^2 = R_m^2, so
    G[m, m] is the norm int |psi_m|^2 dx."""
    return (table @ table.T) * step * (math.sqrt(frame.spec.c0) / frame.rho)


def center_orbit(ptraj: PolarTrajectory, spec: TrainSpec, t):
    """Center x_c(t) = (b0/c0) rho cos(theta) = (b0/c0) phi1, the orbit of
    a classical oscillator; evaluated at sampled times (linear
    interpolation between samples)."""
    xc = (spec.b0 / spec.c0) * np.interp(np.asarray(t, dtype=float), ptraj.t,
                                         ptraj.rho * np.cos(ptraj.theta))
    return float(xc) if xc.ndim == 0 else xc


def overlap(field_a: FieldGrid, field_b: FieldGrid) -> complex:
    """Rectangle-rule integral of conj(psi_a) psi_b on the shared grid."""
    if field_a.grid != field_b.grid:
        raise GridMismatch("overlap needs identical grids")
    if abs(field_a.t - field_b.t) > 1e-9 * max(1.0, abs(field_a.t), abs(field_b.t)):
        raise GridMismatch(
            f"overlap needs matching times, got {field_a.t!r} and {field_b.t!r}"
        )
    return complex(field_integral(np.conj(field_a.values) * field_b.values,
                                  field_a.grid.step))


def _phase_rate(spec: TrainSpec, rho, theta, drho, dtheta, k):
    """Coefficients (quad, lin, const) of dTheta_n/dt = quad x^2 - lin x + const.

    Evaluated analytically from rho, drho, theta, dtheta with ddrho taken
    from the polar equation of motion ddrho = rho dtheta^2 - k rho (no
    numerical time differencing); scalars or equal-shape arrays.
    """
    # d/dt(drho/(2 rho)) with ddrho = rho dtheta^2 - k rho
    quad = 0.5 * (dtheta**2 - k) - 0.5 * drho**2 / rho**2
    lin = spec.b0 * (dtheta * np.cos(theta) * rho - drho * np.sin(theta)) / rho**2
    const = (spec.b0**2 / (2.0 * spec.c0)) * dtheta * np.cos(2.0 * theta) \
        - (0.5 + spec.n) * dtheta
    return quad, lin, const


def mean_energy(ptraj: PolarTrajectory, spec: TrainSpec,
                t: float, grid: UniformGrid) -> float:
    """Average energy E_n(t) = <psi_n| i d/dt |psi_n> = -int R_n^2 dTheta_n/dt dx
    by rectangle-rule quadrature on the supplied grid.

    This is the independent check of ``mean_energy_moments``, which gives
    the same value in closed form, and, through ``mean_energy_levels``, of
    the verify battery's ``level_energies``.
    """
    return float(mean_energy_levels(ptraj, spec, t, grid)[-1])


def _rate_args(ptraj: PolarTrajectory, frame: TrainFrame) -> tuple:
    """(rho, theta, drho, dtheta, k) at ``frame``, a sample of ``ptraj``,
    the arguments of ``_phase_rate`` after its spec."""
    return (frame.rho, frame.theta, frame.drho,
            float(ptraj.dtheta[ptraj.grid.index_of(frame.t)]),
            float(ptraj.params.k(frame.t)))


def mean_energy_levels(ptraj: PolarTrajectory, spec: TrainSpec,
                       t: float, grid: UniformGrid) -> np.ndarray:
    """``mean_energy`` of every level m = 0 .. n sharing ``spec``'s b0 and c0,
    with all R_m^2 taken from one ``hermite_table`` pass and each level
    integrated on its own, -int R_m^2 (quad x^2 - lin x + const_m) dx."""
    frame = train_frame(ptraj, spec, t)
    x = grid.points()
    args = _rate_args(ptraj, frame)
    quad, lin, _ = _phase_rate(spec, *args)
    theta_x = quad * x * x - lin * x
    scale = spec.c0**0.25 / math.sqrt(frame.rho)
    table = hermite_table(spec.n, xi_of(frame, x))
    consts = [_phase_rate(replace(spec, n=m), *args)[2] for m in range(len(table))]
    return np.array([-field_integral((scale * h) ** 2 * (theta_x + const), grid.step)
                     for h, const in zip(table, consts)])


def level_energies(ptraj: PolarTrajectory, frame: TrainFrame, table: np.ndarray,
                   x: np.ndarray, step: float, gram: np.ndarray) -> np.ndarray:
    """E_m of each row h_m(xi(x)) of ``table`` (the levels sharing ``frame``'s
    b0 and c0) from its ``gram_matrix``, one weighted sum per row:
    E_m = -(sqrt(c0)/rho) step sum h_m^2 (quad x^2 - lin x) - const_m G[m, m].
    Both terms are sums over the columns, so for a window taken in blocks of
    columns, the sum of each block's E_m (with that block's Gram matrix) is
    the window's.  ``mean_energy_levels``, level by level, is the check of
    this one."""
    args = _rate_args(ptraj, frame)
    quad, lin, const = _phase_rate(replace(frame.spec, n=0), *args)
    theta_x = quad * x * x - lin * x
    weight = step * math.sqrt(frame.spec.c0) / frame.rho
    # einsum, not np.dot: a threaded BLAS dot on these rows wakes a thread
    # pool that then spins beside the PDE worker of the verify battery
    sums = np.array([np.einsum("i,i->", h * theta_x, h) for h in table])
    consts = const - np.arange(len(table)) * args[3]
    return -weight * sums - consts * np.diagonal(gram)[:len(table)]


def mean_energy_moments(ptraj: PolarTrajectory, spec: TrainSpec, idx) -> np.ndarray:
    """E_n at the trajectory samples ``idx`` (an index array) in closed form.

    R_n^2 is a normalized density with exact moments <x> = x_c and
    <x^2> = rho^2 (n + 1/2)/c0 + x_c^2, x_c = (b0/c0) rho cos(theta), so
    E_n = -(quad <x^2> - lin x_c + const) with the ``_phase_rate``
    coefficients: no spatial grid, vectorized over all samples.
    """
    idx = np.asarray(idx)
    rho, theta = ptraj.rho[idx], ptraj.theta[idx]
    k = ptraj.params.k(ptraj.grid.start + idx * ptraj.grid.step)
    quad, lin, const = _phase_rate(spec, rho, theta, ptraj.drho[idx],
                                   ptraj.dtheta[idx], k)
    xc = (spec.b0 / spec.c0) * rho * np.cos(theta)
    x2 = rho**2 * (spec.n + 0.5) / spec.c0 + xc**2
    return -(quad * x2 - lin * xc + const)


def verify_eq4(ptraj: PolarTrajectory, spec: TrainSpec,
               relative: bool = False) -> dict[str, float]:
    """Max residual of each coefficient ODE of the ansatz,

        i dc/dt = 2 c^2 - k/2,      i db/dt = 2 b c,
        i de/dt = 2 c e - e^3,      i df/dt = b e - e^2 f,
        i (da_n/dt)/a_n = i f df/dt - b^2/2 + c + n e^2,

    with every time derivative taken by fourth-order central differences
    on the ``coefficients`` at the sampled times.  Residuals converge to
    zero at fourth order as the time grid refines.  With ``relative=True``
    each residual is divided by the largest term magnitude in its equation
    (scale-free cancellation quality).  Swept by ``residual_maxima``, so
    memory stays bounded.
    """
    def window(rows, t, sub):
        k = ptraj.params.k(t)
        b, c, e, f, a = coefficients(spec, ptraj.rho[rows], ptraj.theta[rows],
                                     ptraj.drho[rows], ptraj.dtheta[rows])
        dc, db, de, df, da = (central_diff(SampledFunction(sub, x), order=1).values
                              for x in (c, b, e, f, a))
        yield "c", (1j * dc - 2.0 * c * c + 0.5 * k, 2.0 * c * c, 0.5 * k)
        yield "b", (1j * db - 2.0 * b * c, 2.0 * b * c)
        yield "e", (1j * de - 2.0 * c * e + e**3, 2.0 * c * e, e**3)
        yield "f", (1j * df - b * e + e * e * f, b * e, e * e * f)
        yield "a", (1j * da / a - (1j * f * df - 0.5 * b * b + c + spec.n * e * e),
                    f * df, 0.5 * b * b, c, spec.n * e * e)
    return residual_maxima(ptraj.grid, window, relative)


def auto_space_grid(ptraj: PolarTrajectory, spec: TrainSpec,
                    count: int | None = None) -> UniformGrid:
    """Run-wide grid: span = [min x_c - w, max x_c + w] with
    w = 8 (max rho / sqrt(c0)) sqrt(2n + 1); the factor 8 keeps the
    truncated mass far below quadrature tolerances.

    When ``count`` is omitted, the power-of-two count is chosen so the
    fastest Hermite oscillation of the narrowest visited packet (local
    wavelength 2 pi sigma / sqrt(2n+1), sigma = rho/sqrt(c0)) keeps at
    least 16 samples — enough for node and maxima counting on the
    emitted data (clamped to [256, 2^20]).
    """
    sc = math.sqrt(spec.c0)
    xc = (spec.b0 / spec.c0) * ptraj.rho * np.cos(ptraj.theta)
    w = 8.0 * (float(np.max(ptraj.rho)) / sc) * math.sqrt(2.0 * spec.n + 1.0)
    lo = float(np.min(xc)) - w
    hi = float(np.max(xc)) + w
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if count is None:
        sigma_min = float(np.min(ptraj.rho)) / sc
        dx = 2.0 * math.pi * sigma_min / (16.0 * math.sqrt(2.0 * spec.n + 1.0))
        count = 1 << max(8, min(20, math.ceil(math.log2(2.0 * half / dx))))
    return build_space_grid(center, half, count)


def count_nodes(h: np.ndarray) -> int:
    """Interior zeros of a sampled signed amplitude such as h_n(xi(x)) on a
    spatial grid: sign changes between adjacent samples, values below
    1e-12 of the peak ignored.  R_n is h_n(xi) up to a positive factor, so
    this is n exactly when the grid resolves the state, and fewer when it
    is too coarse for the packet."""
    thr = 1e-12 * float(np.max(np.abs(h), initial=0.0))
    live = h[np.abs(h) > thr]
    return int(np.count_nonzero(np.signbit(live[1:]) != np.signbit(live[:-1])))


def count_density_maxima(field: FieldGrid) -> int:
    """Strict interior local maxima of |psi|^2, ignoring tail ripple below
    1e-12 of the peak."""
    d = field.density()
    thr = 1e-12 * float(np.max(d))
    inner = d[1:-1]
    hits = (inner > d[:-2]) & (inner > d[2:]) & (inner > thr)
    return int(np.count_nonzero(hits))
