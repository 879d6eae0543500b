"""Independent split-operator propagator for the driven oscillator,

    i dpsi/dt = -1/2 d^2psi/dx^2 + 1/2 k(t) x^2 psi,
    k(t) = U^2 + V cos(2 t),

used as a cross-check oracle for the closed-form states: it never touches
the analytic construction beyond consuming an initial wavefunction.

Strang splitting with the half kinetic steps in momentum space:

    psi <- F^-1 e^(-i p^2 dt/4) F  e^(-i k(t_mid) x^2 dt/2)  F^-1 e^(-i p^2 dt/4) F

is second order in dt (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412
(1982)); adjacent half kinetic steps between outputs are merged into whole
steps, so a step costs one FFT pair plus pointwise phases; the kick takes
cos/sin of 2(R + Q) - 1 ~ 4 sqrt(N) phases, not N (``kick_phases``).

Grids of up to ``FOUR_STEP_ABOVE`` points take numpy's 1-D FFT.  Larger
ones transform as a four-step FFT (``four_step_fft``): short FFTs along
each axis of a square-ish 2-D view of psi stay in cache where one 1-D
transform of the whole buffer does not, and momentum space is kept in
that transform's own point order, so no transpose is ever taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AliasingRisk, Cancelled, ConfigError, GridMismatch, InvalidCount,
                     NormDrift, TooManySamples)
from .mathieu import PolarTrajectory, TrapParameters
from .numerics import (UniformGrid, build_space_grid, field_integral, is_power_of_two,
                       require_samples)
from .trains import NORM_TOL, FieldGrid, TrainSpec

# Budget on steps x grid points of one propagation, 1.5-3 minutes at the
# 22-40 ns per point-step measured on 16384 down to 1024 points (2-vCPU Xeon).
# The largest propagation in the acceptance tests (24576 steps on 16384
# points, 4.0e8) is 10x below it, and the largest a preset runs
# (oracle-compare fig3-collapse to 2pi, 4096 x 16384) 64x.
MAX_POINT_STEPS = 2**32

# Largest grid count transformed by numpy's 1-D FFT; larger grids take the
# four-step transform.  Interleaved, an FFT pair cost 155 us 1-D against
# 153 us four-step at 4096 points, 322 against 267 at 8192 and 468 against
# 409 at 16384; at 2048 and below the 1-D pair is faster (2-vCPU Xeon,
# numpy 2.4).
FOUR_STEP_ABOVE = 4096


@dataclass(frozen=True)
class PropagatorConfig:
    """Spatial grid (power-of-two count, FFT-ready) and time step."""

    grid: UniformGrid
    dt: float

    def __post_init__(self):
        if not is_power_of_two(self.grid.count):
            raise InvalidCount(
                f"propagation grid count must be a power of two, got {self.grid.count}"
            )
        if not (self.dt > 0):
            raise ValueError(f"time step must be positive, got {self.dt}")


def aliasing_dt_bound(params: TrapParameters, grid: UniformGrid) -> float:
    """pi / (2 k_max x_edge dx): the step at which the kick's edge wavenumber
    k_max x_edge dt reaches half of Nyquist (Feit, Fleck & Steiger, J.
    Comput. Phys. 47, 412 (1982)), with k_max = U^2 + |V|; ConfigError when
    k_max x_edge dx rounds to 0.0, on a grid too fine for any bound."""
    edge = max(abs(grid.start), abs(grid.stop))
    rate = (params.u2 + abs(params.v)) * edge * grid.step
    if not rate > 0:
        raise ConfigError(f"the grid step {grid.step:.4g} is too small for a propagation "
                          f"step bound: k_max x_edge dx rounds to {rate!r}")
    return 0.5 * math.pi / rate


def lattice_steps(span: float, dt: float) -> int:
    """The whole number of steps ``dt`` in ``span``: TooManySamples past
    the per-axis cap ``MAX_SAMPLES`` (checked before anything is rounded
    or allocated), GridMismatch unless ``span`` is m dt to 1e-9 relative."""
    require_samples(abs(span) / dt + 1, "the split-step propagation")
    m = int(round(span / dt))
    if abs(m * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise GridMismatch(f"time span {span!r} is not a whole number of steps dt = {dt!r}")
    return m


def four_step_fft(count: int):
    """In-place forward and inverse DFT of a contiguous complex buffer of
    ``count`` = 2^q points as four-step transforms (Bailey, J.
    Supercomputing 4, 23 (1990)), and the permutation they share.

    The buffer is viewed as A[j1, j2] = psi[j1 n2 + j2] with n1 = 2^(q//2)
    and n2 = count / n1.  ``forward`` takes n2 FFTs of length n1 along
    axis 0, multiplies by the twiddle exp(-2 pi i k1 j2 / count), then n1
    FFTs of length n2 along axis 1, leaving F[k1 + n1 k2] at A[k1, k2];
    ``inverse`` undoes it in reverse order and returns psi in natural
    order.  ``layout(k)`` is a copy of an array in natural FFT order
    permuted into that k-space order."""
    n1 = 1 << (count.bit_length() - 1) // 2
    n2 = count // n1
    twiddle = np.exp(-2j * math.pi / count * np.outer(np.arange(n1), np.arange(n2)))
    untwiddle = twiddle.conj()

    def forward(a):
        view = a.reshape(n1, n2)
        np.fft.fft(view, axis=0, out=view)
        view *= twiddle
        np.fft.fft(view, axis=1, out=view)

    def inverse(a):
        view = a.reshape(n1, n2)
        np.fft.ifft(view, axis=1, out=view)
        view *= untwiddle
        np.fft.ifft(view, axis=0, out=view)

    def layout(k):
        return k.reshape(n2, n1).T.flatten()

    return forward, inverse, layout


def kick_phases(grid: UniformGrid, dt: float):
    """The kick phase per unit k(t), -dt/2 x^2, on the R x Q view of the grid
    (R = 2^(q//2) rows as in ``four_step_fft``): with x = start + (Q r + b) dx,
    the chirp identity 2rb = r^2 + b^2 - (r - b)^2 (Bluestein, IEEE Trans.
    Audio Electroacoust. 18, 451 (1970)) splits it into 2(R + Q) - 1 values,
    -dt/2 x^2 = row[r] + col[b] + diag[R - 1 - r + b] (diag over r - b)."""
    rows = 1 << (grid.count.bit_length() - 1) // 2
    cols, c, dx = grid.count // rows, -0.5 * dt, grid.step
    r, b, d = np.arange(rows), np.arange(cols), np.arange(rows - 1, -cols, -1)
    row = c * ((grid.start + cols * dx * r) ** 2 + cols * dx * dx * r * r)
    col = c * dx * b * ((1 + cols) * dx * b + 2.0 * grid.start)
    return row, col, -c * cols * dx * dx * d * d


def renormalized(field: FieldGrid) -> FieldGrid:
    """Rescale a field to unit rectangle-rule norm (``FieldGrid.norm``).

    That norm is the exact (Parseval) invariant of the split-step scheme,
    so a state prepared this way stays unit to roundoff throughout a
    propagation."""
    return FieldGrid(grid=field.grid, t=field.t,
                     values=field.values / math.sqrt(field.norm))


def split_step_evolve(psi0: FieldGrid, params: TrapParameters,
                      config: PropagatorConfig, t_final: float,
                      record_times=None, cancel=None) -> list[FieldGrid]:
    """Propagate ``psi0`` to ``t_final``, returning fields at the requested
    times (default: final time only).  ``cancel``, an optional
    ``threading.Event``, stops the propagation with Cancelled at the next
    step once it is set.

    Preconditions and guards:

    * ``psi0.grid`` must equal ``config.grid`` and ``psi0`` must not be
      flagged ``norm_deficit`` — its rectangle-rule norm is the scheme's
      own invariant metric; see ``renormalized`` (GridMismatch /
      ValueError otherwise);
    * every recorded time and ``t_final`` must sit on the step lattice
      t0 + m dt (``lattice_steps``: GridMismatch otherwise), the step
      count must not pass ``MAX_SAMPLES``, nor steps x grid points
      ``MAX_POINT_STEPS`` (TooManySamples, before any buffer is built);
    * the kick's local wavenumber k_max x_edge dt at the grid edge must
      stay below half of Nyquist, pi/(2 dx), i.e. dt < ``aliasing_dt_bound``
      (AliasingRisk).  This guards sampling only; the absolute kick phase
      wraps harmlessly, and closed-form distance checks certify accuracy;
    * the uniform-weight norm is monitored every step; relative drift
      beyond 1e-8 aborts (NormDrift) since the splitting is exactly
      unitary in exact arithmetic.  Between recorded times the guard is
      a plain sum of squares over a float view of the step buffer, not a
      BLAS call: ``np.vdot`` wakes OpenBLAS's thread pool on every step,
      which cost 5-40% of a step under default threading and slowed any
      work sharing the machine.

    The kick e^(-i k(t_mid) x^2 dt/2) is the product of the three factors
    of ``kick_phases`` on the R x Q view of psi, the Toeplitz one a strided
    view of its 2(R + Q) - 1 phases, on every grid, centred or not.

    Grids of more than ``FOUR_STEP_ABOVE`` points transform with
    ``four_step_fft``, with the kinetic phases permuted once into its
    k-space order; the drift guard's Parseval sum does not depend on it.
    """
    grid = config.grid
    if psi0.grid != grid:
        raise GridMismatch("initial field lives on a different grid than the propagator")
    if psi0.norm_deficit:
        raise ValueError(
            f"initial field rectangle-rule norm {psi0.norm:.8g} is not within "
            f"{NORM_TOL:g} of 1; renormalize or enlarge the grid first"
        )
    dt = config.dt
    t0 = psi0.t
    span = t_final - t0
    if span < 0:
        raise ValueError("t_final precedes the initial time")
    n_steps = lattice_steps(span, dt)
    if n_steps * grid.count > MAX_POINT_STEPS:
        raise TooManySamples(
            f"the split-step propagation needs {n_steps} steps on {grid.count} points, "
            f"{n_steps * grid.count:.4g} point-steps, more than the budget of "
            f"{MAX_POINT_STEPS:.4g}"
        )

    bound = aliasing_dt_bound(params, grid)
    if dt >= bound:
        raise AliasingRisk(
            f"time step {dt:.3g} reaches the sampling bound {bound:.3g}: the kick's "
            "local wavenumber at the grid edge passes half of Nyquist; shrink dt or the box"
        )

    if record_times is None:
        record_times = [t_final]
    record_steps = []
    for tr in record_times:
        m = lattice_steps(tr - t0, dt)
        if m < 0 or m > n_steps:
            raise GridMismatch(f"record time {tr!r} lies outside [t0, t_final]")
        record_steps.append(m)

    if grid.count > FOUR_STEP_ABOVE:
        forward, inverse, layout = four_step_fft(grid.count)
    else:  # numpy's in-place 1-D pair, k in natural order
        forward, inverse, layout = (lambda a: np.fft.fft(a, out=a),
                                    lambda a: np.fft.ifft(a, out=a), lambda k: k)
    p = 2.0 * math.pi * np.fft.fftfreq(grid.count, d=grid.step)
    half_kin = layout(np.exp(-0.25j * p * p * dt))
    full_kin = half_kin * half_kin
    # the row, column and Toeplitz factors of the kick on the R x Q view of psi
    phases = kick_phases(grid, dt)
    rows, cols = len(phases[0]), len(phases[1])
    kick_base = np.concatenate(phases)
    kick_arg = np.empty(len(kick_base))
    kick = np.empty(len(kick_base), dtype=complex)
    factors = (kick[:rows, None], kick[rows:rows + cols],
               sliding_window_view(kick[rows + cols:], cols)[::-1])

    norm0 = math.sqrt(psi0.norm)
    out: dict[int, FieldGrid] = {}

    def check_drift(norm: float, m: int):
        drift = abs(math.sqrt(norm) - norm0)
        if drift > 1e-8:
            raise NormDrift(
                f"norm drifted by {drift:.3g} after step {m}; "
                "the propagation is numerically broken"
            )

    if 0 in record_steps:
        out[0] = FieldGrid(grid=grid, t=t0, values=psi0.values.copy())
    if n_steps == 0:
        return [out[m] for m in record_steps]

    # pattern: K_half V [K_full V]^(n-1) K_half, with K_full split back
    # into two K_half factors wherever an intermediate state is recorded
    psi = psi0.values.copy()
    forward(psi)
    np.multiply(half_kin, psi, out=psi)  # operand order: complex * is not bitwise commutative
    flat = psi.view(float)  # re, im of psi: every update below is in place
    view = psi.reshape(rows, cols)
    record_set = set(record_steps)
    for m in range(n_steps):
        if cancel is not None and cancel.is_set():
            raise Cancelled(f"propagation cancelled at step {m} of {n_steps}")
        inverse(psi)
        k_mid = params.u2 + params.v * math.cos(2.0 * (t0 + (m + 0.5) * dt))
        np.multiply(kick_base, k_mid, out=kick_arg)
        np.cos(kick_arg, out=kick.real)
        np.sin(kick_arg, out=kick.imag)
        for factor in factors:
            view *= factor
        forward(psi)
        last = m + 1 == n_steps
        if last or (m + 1 in record_set):
            psi *= half_kin
            values = psi.copy()
            inverse(values)
            field = FieldGrid(grid=grid, t=t0 + (m + 1) * dt, values=values)
            check_drift(field.norm, m + 1)
            if m + 1 in record_set:
                out[m + 1] = field
            if not last:
                psi *= half_kin  # leading half kinetic step of the next step
        else:
            psi *= full_kin
            # unnormalized FFT scales the squared L2 norm by count
            check_drift(np.einsum("i,i->", flat, flat) * grid.step / grid.count, m + 1)
    return [out[m] for m in record_steps]


def l2_density_distance(field_a: FieldGrid, field_b: FieldGrid) -> float:
    """L2 distance of the densities, [int (|psi_a|^2 - |psi_b|^2)^2 dx]^(1/2)
    by the rectangle rule."""
    if field_a.grid != field_b.grid:
        raise GridMismatch("density distance needs one shared grid")
    diff = field_a.density() - field_b.density()
    return math.sqrt(field_integral(diff * diff, field_a.grid.step))


def propagation_grid(ptraj: PolarTrajectory, spec: TrainSpec,
                     min_count: int = 1024) -> UniformGrid:
    """Spatial grid sized for split-step propagation over the whole
    trajectory: the box must hold the moving, breathing packet and the
    momentum lattice must resolve its largest local wavenumber.

    Half-width: run max of |x_c| plus (sqrt(2n+1) + 3) packet widths
    rho/sqrt(c0).  Wavenumber demand: (sqrt(2n+1) + 3) times the max of
    sqrt(c0/rho^2 + drho^2/c0) (envelope spread in momentum) plus
    |b0|/rho_min (center momentum), with 15% headroom.
    """
    pad = math.sqrt(2.0 * spec.n + 1.0) + 3.0
    sc = math.sqrt(spec.c0)
    sigma = ptraj.rho / sc
    xc = (spec.b0 / spec.c0) * ptraj.rho * np.cos(ptraj.theta)
    half = float(np.max(np.abs(xc))) + pad * float(np.max(sigma))
    k_env = float(np.max(np.sqrt(spec.c0 / ptraj.rho**2 + ptraj.drho**2 / spec.c0)))
    k_need = pad * k_env + abs(spec.b0) / float(np.min(ptraj.rho))
    need = max(min_count, 2.0 * half * k_need * 1.15 / math.pi)
    if need == math.inf:  # overflowed, so there is no power of two to round it to
        require_samples(need, "the space grid")
    count = 1 << math.ceil(math.log2(need))
    return build_space_grid(0.0, half, count)
