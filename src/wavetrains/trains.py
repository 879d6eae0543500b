"""Exact wave-packet-train states built on a classical polar trajectory.

The n-th state is the test-function ansatz

    psi_n = a_n H_n(e x - f) exp(-c x^2 + b x - f^2/2) = R_n exp(i Theta_n),
    R_n     = sqrt(e) h_n(xi),   xi = e x - f,
    Theta_n = Im b x - Im c x^2 + arg a_n,

whose coefficients b, c, e, f, a_n (``coefficients``) are written in the
polar form (rho, theta) of the classical solution, c0 = rho^2 dtheta its
first integral.  The density has n+1 humps sharing one moving, breathing
envelope; the hump pattern's center follows the classical orbit
x_c = (b0/c0) phi1.

Each formula is written once and takes scalars or equal-shape arrays of
the polar samples: ``coefficients`` (the ansatz b, c, e, f, a_n, which a
``TrainFrame`` holds and every evaluation of the state reads),
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
from .numerics import residual_maxima

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
    """Everything needed to evaluate psi_n at one time: the polar sample,
    k(t), and the ansatz ``coefficients`` of the sample, computed once
    here, that every evaluation of the state reads."""

    t: float
    rho: float
    theta: float
    drho: float
    dtheta: float
    k: float
    spec: TrainSpec
    coeff: CoefficientSet = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coeff", coefficients(self.spec, self.rho, self.theta,
                                                       self.drho, self.dtheta))


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


class FieldRows:
    """Long-format (t, x, density, re_psi, im_psi) rows of frames on one grid
    of points ``x``, time after time.  Each ``[s:e]`` slice builds its block,
    which may span times, from ``psi(frame, x[lo:hi])`` of each frame it
    covers, so at most one block of psi exists and no times x N x 5 array;
    psi is elementwise, so the values are bit for bit those of
    ``psi_on_grid``.  A ``[s:e, cols]`` slice of the leading ``keyed``
    columns, t and x (the only ones that recur in the table), evaluates
    no psi."""

    keyed = 2

    def __init__(self, frames: list[TrainFrame], x: np.ndarray):
        self.frames, self.x, self.shape = frames, x, (len(frames) * len(x), 5)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = index if isinstance(index, tuple) else (index, slice(None))
        s, e, _ = rows.indices(len(self))
        n, evaluate = len(self.x), max(range(5)[cols], default=0) >= self.keyed
        block = np.empty((max(e - s, 0), 5))
        for j in range(s // n, -(-e // n)):
            lo, hi = max(s - j * n, 0), min(e - j * n, n)
            part = block[j * n + lo - s:j * n + hi - s]
            part[:, 0], part[:, 1] = self.frames[j].t, self.x[lo:hi]
            if evaluate:
                v = psi(self.frames[j], self.x[lo:hi])
                part[:, 2], part[:, 3], part[:, 4] = np.abs(v) ** 2, v.real, v.imag  # as .density()
        return block[:, cols]


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
    _, _, e, f, _ = frame.coeff
    ends = ((f + np.array([-XI_UNDERFLOW, XI_UNDERFLOW])) / e - grid.start) / grid.step
    lo, hi = np.clip([np.ceil(ends[0]) - 2, np.floor(ends[1]) + 3], 0, grid.count)
    return slice(int(lo), int(max(hi, lo)))


def train_frame(ptraj: PolarTrajectory, spec: TrainSpec, t: float) -> TrainFrame:
    """Frame at a sampled time of the polar trajectory."""
    i = ptraj.grid.index_of(t)
    t = float(ptraj.grid.start + i * ptraj.grid.step)
    return TrainFrame(t=t, rho=float(ptraj.rho[i]), theta=float(ptraj.theta[i]),
                      drho=float(ptraj.drho[i]), dtheta=float(ptraj.dtheta[i]),
                      k=float(ptraj.params.k(t)), spec=spec)


def xi_of(frame: TrainFrame, x):
    """Dimensionless train coordinate xi = e x - f."""
    _, _, e, f, _ = frame.coeff
    return e * np.asarray(x, dtype=float) - f


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
    """Signed real amplitude R_n(x, t) = sqrt(e) h_n(xi)."""
    return math.sqrt(frame.coeff.e) * hermite_scaled(frame.spec.n, xi_of(frame, x))


def phase(frame: TrainFrame, x):
    """Phase Theta_n(x, t) = Im b x - Im c x^2 + arg a_n of the state."""
    b, c, _, _, a_n = frame.coeff
    x = np.asarray(x, dtype=float)
    return b.imag * x - c.imag * x * x + np.angle(a_n)


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

    R_m = sqrt(e) h_m(xi) and Theta_n - Theta_m = arg a_n - arg a_m is
    x-independent, so |<m|n>| = |G[m, n]|; and |psi_m|^2 = R_m^2, so
    G[m, m] is the norm int |psi_m|^2 dx."""
    return (table @ table.T) * step * frame.coeff.e


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
    the same value in closed form.
    """
    frame = train_frame(ptraj, spec, t)
    x = grid.points()
    quad, lin, const = _phase_rate(spec, frame.rho, frame.theta, frame.drho,
                                   frame.dtheta, frame.k)
    return float(-field_integral(amplitude(frame, x) ** 2 * (quad * x * x - lin * x + const),
                                 grid.step))


def level_energies(frame: TrainFrame, table: np.ndarray, x: np.ndarray,
                   step: float, gram: np.ndarray) -> np.ndarray:
    """E_m of each row h_m(xi(x)) of ``table`` (the levels sharing ``frame``'s
    b0 and c0) from its ``gram_matrix``, one weighted sum per row:
    E_m = -e step sum h_m^2 (quad x^2 - lin x) - const_m G[m, m].
    Both terms are sums over the columns, so for a window taken in blocks of
    columns, the sum of each block's E_m (with that block's Gram matrix) is
    the window's.  ``mean_energy`` of each level is the check of this one."""
    quad, lin, const = _phase_rate(replace(frame.spec, n=0), frame.rho, frame.theta,
                                   frame.drho, frame.dtheta, frame.k)
    theta_x = quad * x * x - lin * x
    weight = step * frame.coeff.e
    # einsum, not np.dot: a threaded BLAS dot on these rows wakes a thread
    # pool that then spins beside the PDE child process of the verify battery
    sums = np.array([np.einsum("i,i->", h * theta_x, h) for h in table])
    consts = const - np.arange(len(table)) * frame.dtheta
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


def coefficient_equations(params, spec: TrainSpec, t, step: float,
                          rho, theta, drho, dtheta):
    """The coefficient ODEs of ``verify_eq4`` on polar samples at times
    ``t``, ``step`` apart, as ``residual_maxima`` takes them."""
    def rate(x):  # each derivative is taken as its equation needs it
        return central_diff(x, step, order=1)

    k = params.k(t)
    b, c, e, f, a = coefficients(spec, rho, theta, drho, dtheta)
    yield "c", (1j * rate(c) - 2.0 * c * c + 0.5 * k, 2.0 * c * c, 0.5 * k)
    yield "b", (1j * rate(b) - 2.0 * b * c, 2.0 * b * c)
    yield "e", (1j * rate(e) - 2.0 * c * e + e**3, 2.0 * c * e, e**3)
    df = rate(f)
    yield "f", (1j * df - b * e + e * e * f, b * e, e * e * f)
    yield "a", (1j * rate(a) / a - (1j * f * df - 0.5 * b * b + c + spec.n * e * e),
                f * df, 0.5 * b * b, c, spec.n * e * e)


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
    (scale-free cancellation quality).  Whole arrays, one ``residual_maxima``
    window.
    """
    equations = coefficient_equations(ptraj.params, spec, ptraj.t, ptraj.grid.step,
                                      ptraj.rho, ptraj.theta, ptraj.drho, ptraj.dtheta)
    return residual_maxima([(slice(None), equations)], relative)


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


class NodeCount:
    """``count_nodes`` of a row fed block by block (``add``), holding only
    the row's runs of one sign bit, each as its largest |h|.  A run whose
    largest |h| is at most 1e-12 of the running peak holds no sample the
    final threshold (1e-12 of the row's peak, never lower) keeps, so it is
    dropped, and the runs of equal sign it separated merge: what remains
    alternates in sign, so the count is its length less one."""

    def __init__(self):
        self.signs, self.peaks, self.peak = np.zeros(0, bool), np.zeros(0), 0.0

    def add(self, h: np.ndarray) -> "NodeCount":
        if len(h):
            sign = np.signbit(h)
            starts = np.flatnonzero(np.r_[True, sign[1:] != sign[:-1]])
            peaks = np.maximum.reduceat(np.abs(h), starts)
            self.peak = max(self.peak, float(np.max(peaks)))
            signs = np.concatenate([self.signs, sign[starts]])
            peaks = np.concatenate([self.peaks, peaks])
            live = peaks > 1e-12 * self.peak
            signs, peaks = signs[live], peaks[live]
            if len(signs):
                starts = np.flatnonzero(np.r_[True, signs[1:] != signs[:-1]])
                signs, peaks = signs[starts], np.maximum.reduceat(peaks, starts)
            self.signs, self.peaks = signs, peaks
        return self

    def count(self) -> int:
        return max(len(self.signs) - 1, 0)


def count_nodes(h: np.ndarray) -> int:
    """Interior zeros of a sampled signed amplitude such as h_n(xi(x)) on a
    spatial grid: sign changes between adjacent samples, values at or below
    1e-12 of the peak ignored.  R_n is h_n(xi) up to a positive factor, so
    this is n exactly when the grid resolves the state, and fewer when it
    is too coarse for the packet.  One block of ``NodeCount``, which
    counts a row given in blocks the same way."""
    return NodeCount().add(h).count()


def count_density_maxima(field: FieldGrid) -> int:
    """Strict interior local maxima of |psi|^2, ignoring tail ripple below
    1e-12 of the peak."""
    d = field.density()
    thr = 1e-12 * float(np.max(d))
    inner = d[1:-1]
    hits = (inner > d[:-2]) & (inner > d[2:]) & (inner > thr)
    return int(np.count_nonzero(hits))
