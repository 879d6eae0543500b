"""Classical core: the driven-oscillator (Mathieu) equation and its two
solution routes.

The equation of motion is  phi'' = -k(t) phi  with  k(t) = U^2 + V cos 2t
(time in units 2/omega, m = hbar = 1).  Route one iterates the equivalent
Volterra integral equations (Picard iteration, quadrature by cumulative
Simpson); route two integrates the ODE directly with fixed-step RK4, whose
steps are 2x2 matrices (the equation is linear) built at once in closed
form and composed by a blocked prefix product.  The polar decomposition
phi = rho * exp(i*theta) and the first integral c0 = rho^2 * dtheta =
phi1*dphi2 - phi2*dphi1 feed the quantum construction in ``trains``.
Both trajectory records hold whole arrays on one uniform time grid;
``every`` slices either to every m-th sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BranchJump,
    NonFiniteValue,
    NonZeroStart,
    OriginCrossing,
    StabilityRegionWarning,
    TooManySamples,
)
from .numerics import UniformGrid, central_diff, cumulative_simpson, residual_maxima
from .numerics import SampledFunction, require_samples

# Budget on iterations x samples of one Picard solve, about 5 minutes at
# the 60-100 ns per iteration-sample measured on 8193 to 65537 samples
# (2-vCPU Xeon).  On verify's 8193-sample grid it allows 524,224
# iterations; the Picard check converges in a handful.
MAX_ITERATION_SAMPLES = 2**32


@dataclass(frozen=True)
class TrapParameters:
    """Dimensionless drive k(t) = U^2 + V cos 2t.

    Normalization conventions (all fixed, never stored): m = hbar = 1,
    time in units 2/omega, length in units of the oscillator length
    l_h = sqrt(hbar/(m*omega)).

    ``u2`` is the DC part (the square of U); ``v`` the drive amplitude.
    Emits StabilityRegionWarning when the first-stability heuristic
    (U^2 < 1, V < 1, V <~ U^2) is violated -- except at V = 0, where the
    motion is a plain oscillator and bounded for every U.
    """

    u2: float
    v: float

    def __post_init__(self):
        if not (self.u2 > 0):
            raise ValueError(f"u2 must be strictly positive, got {self.u2}")
        if self.v != 0 and not (self.u2 < 1 and self.v < 1 and self.v <= self.u2):
            warnings.warn(
                f"trap parameters u2={self.u2}, v={self.v} are outside the "
                "first-stability heuristic (u2 < 1, v < 1, v <= u2); the "
                "classical motion may be unbounded",
                StabilityRegionWarning,
                stacklevel=2,
            )

    @property
    def u(self) -> float:
        return math.sqrt(self.u2)

    def k(self, t):
        """Spring constant at time t (scalar or array)."""
        return self.u2 + self.v * np.cos(2.0 * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ClassicalInit:
    """Constants (A, B, alpha, beta) of the iteration scheme; they define
    the initial data through the V = 0 form phi1 = A cos(U t + alpha),
    phi2 = B cos(U t + beta) evaluated at t = 0."""

    a: float
    b: float
    alpha: float
    beta: float


def first_integral(phi1, phi2, dphi1, dphi2):
    """Conserved Wronskian phi1*dphi2 - phi2*dphi1 (scalars or arrays)."""
    return phi1 * dphi2 - phi2 * dphi1


@dataclass(frozen=True)
class Trajectory:
    """Sampled classical solution on a uniform time grid.

    ``c0`` is the first integral evaluated at t = 0; ``max_c0_drift`` the
    largest relative deviation of the Wronskian from c0 along the samples
    (small for exact solutions, O(V^(k+1)) for a k-th Picard iterate).
    """

    params: TrapParameters
    init: ClassicalInit
    grid: UniformGrid
    phi1: np.ndarray
    phi2: np.ndarray
    dphi1: np.ndarray
    dphi2: np.ndarray
    c0: float = field(init=False)
    max_c0_drift: float = field(init=False)

    def __post_init__(self):
        w = first_integral(self.phi1, self.phi2, self.dphi1, self.dphi2)
        c0 = float(w[0])
        scale = max(abs(c0), np.finfo(float).tiny)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "max_c0_drift", float(np.max(np.abs(w - c0)) / scale))

    @property
    def t(self) -> np.ndarray:
        return self.grid.points()


@dataclass(frozen=True)
class PolarTrajectory:
    """Polar decomposition of a Trajectory on the same grid."""

    params: TrapParameters
    grid: UniformGrid
    rho: np.ndarray
    theta: np.ndarray
    drho: np.ndarray
    dtheta: np.ndarray
    c0: float
    max_c0_drift: float

    @property
    def t(self) -> np.ndarray:
        return self.grid.points()


def unperturbed_solution(init: ClassicalInit, params: TrapParameters, t):
    """V = 0 solution phi1 = A cos(Ut+alpha), phi2 = B cos(Ut+beta) with
    exact derivatives, as (phi1, phi2, dphi1, dphi2) at a scalar or array
    t; also supplies the t = 0 initial data for both solvers."""
    u = params.u
    t = np.asarray(t, dtype=float)
    phi1 = init.a * np.cos(u * t + init.alpha)
    phi2 = init.b * np.cos(u * t + init.beta)
    dphi1 = -init.a * u * np.sin(u * t + init.alpha)
    dphi2 = -init.b * u * np.sin(u * t + init.beta)
    return phi1, phi2, dphi1, dphi2


def require_picard_budget(iterations: int, count: int):
    """Raise TooManySamples, before anything is computed, when ``iterations``
    Picard passes over ``count`` samples pass MAX_ITERATION_SAMPLES."""
    if iterations * count > MAX_ITERATION_SAMPLES:
        raise TooManySamples(
            f"the Picard solve needs {iterations} iterations on {count} samples, "
            f"{iterations * count:.4g} iteration-samples, more than the budget of "
            f"{MAX_ITERATION_SAMPLES:.4g}"
        )


def picard_iterate(params: TrapParameters, init: ClassicalInit,
                   iterations: int, grid: UniformGrid) -> Trajectory:
    """Iterate the Volterra integral form of the oscillator equation.

    Iteration zero is the unperturbed solution.  Iterate k+1 substitutes
    iterate k into

        phi(t) = h(t) - (V/U) [ sin(Ut) C(t) - cos(Ut) S(t) ],
        C(t) = int_0^t cos(Us) cos(2s) phi_k(s) ds,
        S(t) = int_0^t sin(Us) cos(2s) phi_k(s) ds,

    with h the unperturbed term; both running integrals are evaluated by
    cumulative Simpson quadrature on ``grid``, which must start at t = 0
    (NonZeroStart otherwise).  The sign of the V/U term is fixed by
    variation of parameters: substituting the form back into
    phi'' + U^2 phi = -V cos(2t) phi requires the minus.
    Derivatives are obtained analytically, never by differencing: the
    integrals' t-derivatives cancel pairwise, leaving

        dphi(t) = h'(t) - V [ cos(Ut) C(t) + sin(Ut) S(t) ].
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    require_picard_budget(iterations, grid.count)
    if grid.start != 0.0:
        raise NonZeroStart(
            f"the integral equations take their lower limit at t = 0; grid "
            f"starts at {grid.start}"
        )
    t = grid.points()
    h = grid.step
    u, v = params.u, params.v
    cosu = np.cos(u * t)
    sinu = np.sin(u * t)
    cos2 = np.cos(2.0 * t)

    base1, base2, dbase1, dbase2 = unperturbed_solution(init, params, t)
    out = []
    for base, dbase in ((base1, dbase1), (base2, dbase2)):
        phi = base.copy()
        cint = np.zeros_like(t)
        sint = np.zeros_like(t)
        for _ in range(iterations):
            g = cos2 * phi
            cint = cumulative_simpson(cosu * g, h)
            sint = cumulative_simpson(sinu * g, h)
            phi = base - (v / u) * (sinu * cint - cosu * sint)
        dphi = dbase - v * (cosu * cint + sinu * sint)
        out.append((phi, dphi))
    (phi1, dphi1), (phi2, dphi2) = out
    return Trajectory(params=params, init=init, grid=grid,
                      phi1=phi1, phi2=phi2, dphi1=dphi1, dphi2=dphi2)


def _mul2(a, b):
    """Product of two 2x2 matrices given as entry tuples (00, 01, 10, 11);
    the entries may be floats or arrays of one shape (then entrywise)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _rk4_propagators(params: TrapParameters, h: float, n_steps: int,
                     block: int) -> np.ndarray:
    """Entries (00, 01, 10, 11) of the RK4 step matrices, shape
    (4, block, blocks): position i = b block + j sits at [:, j, b], so
    position j of every block is one contiguous row.

    RK4 applied to y' = [[0, 1], [-k, 0]] y is linear in y, so the step
    t_(i-1) -> t_i is a matrix M_i.  With a, b, c the values of h^2 k at
    the step's start, midpoint and end,

        M_i = [[1 - b/3 + a (b - 4)/24,          h (1 - b/6)           ],
               [((a + c)(b - 2)/12 - 2b/3) / h,  1 - b/3 + c (b - 4)/24]].

    Position i (1 <= i <= n_steps) holds M_i; position 0 and the padding
    up to whole blocks hold identities, so the product up to position i
    maps sample 0 to sample i and the padding adds no step that could
    overflow where h sqrt(k) lies beyond RK4's stability limit.
    """
    blocks = -(-(n_steps + 1) // block)
    t = np.arange(-1, blocks * block) * h  # t[i] = t_(i-1), in position order
    hk = h * h * params.k(t)
    b = (h * h * params.k(t[:-1] + 0.5 * h)).reshape(blocks, block)
    a, c = hk[:-1].reshape(blocks, block), hk[1:].reshape(blocks, block)
    m = np.empty((4, block, blocks))
    steps = m.transpose(0, 2, 1)  # [:, b, j], a view in position order
    steps[0] = 1.0 - b / 3.0 + a * (b - 4.0) / 24.0
    steps[1] = h * (1.0 - b / 6.0)
    steps[2] = ((a + c) * (b - 2.0) / 12.0 - 2.0 * b / 3.0) / h
    steps[3] = 1.0 - b / 3.0 + c * (b - 4.0) / 24.0
    identity = np.array([[1.0], [0.0], [0.0], [1.0]])
    steps[:, 0, :1] = identity
    steps[:, -1, n_steps + 1 - (blocks - 1) * block:] = identity
    return m


def _rk4_scan(params: TrapParameters, grid: UniformGrid, y0):
    """States Y_i = M_i ... M_1 Y_0 at every grid point by a blocked prefix
    product (Blelloch 1990) over blocks of ceil(sqrt(N)) steps: inclusive
    prefixes inside all blocks at once, one contiguous row per position,
    then the state carried across block ends, then every prefix applied to
    its block's starting state.  About 2 sqrt(N) Python iterations instead
    of N.

    ``y0`` is the entry tuple of Y_0 = [[phi1, phi2], [dphi1, dphi2]];
    returns (phi1, phi2, dphi1, dphi2) arrays.  Raises NonFiniteValue at
    the first non-finite sample.
    """
    n_steps = grid.count - 1
    block = math.isqrt(n_steps - 1) + 1  # ceil(sqrt(n_steps))
    with np.errstate(over="ignore", invalid="ignore"):
        p = _rk4_propagators(params, grid.step, n_steps, block)
        for j in range(1, block):
            p[:, j] = _mul2(p[:, j], p[:, j - 1])
        starts = []
        y = y0
        for end in p[:, -1].T.tolist():
            starts.append(y)
            y = _mul2(end, y)
        blocked = list(_mul2(p, np.array(starts).T[:, None, :]))
        del p  # freed before each state is copied into time order
        states = [blocked.pop(0).T.reshape(-1)[:grid.count] for _ in range(4)]
    finite = np.logical_and.reduce([np.isfinite(s) for s in states])
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"RK4 state became non-finite at t = {i * grid.step}")
    return states


def solve_classical(params: TrapParameters, init: ClassicalInit,
                    t_span: tuple[float, float], step: float) -> Trajectory:
    """Integrate phi'' = -(U^2 + V cos 2t) phi componentwise with fixed-step
    RK4, as a product of per-step matrices shared by phi1 and phi2.

    Initial conditions are taken from ``unperturbed_solution`` at t = 0 so
    the Picard and RK4 routes share initial data exactly.  The step is
    shrunk (never grown) to divide the span evenly, so the final sample
    lands exactly on t_span[1].
    """
    t0, t1 = t_span
    if t0 != 0.0:
        raise NonZeroStart(f"runs must start at t = 0, got {t0}")
    if not (t1 > 0 and step > 0):
        raise ValueError("need t_span[1] > 0 and step > 0")
    require_samples(t1 / step + 1.0, "the classical solve")
    n_steps = max(1, math.ceil(t1 / step - 1e-12))
    grid = UniformGrid(start=0.0, step=t1 / n_steps, count=n_steps + 1)

    phi1, phi2, dphi1, dphi2 = _rk4_scan(params, grid,
                                         unperturbed_solution(init, params, 0.0))
    return Trajectory(params=params, init=init, grid=grid,
                      phi1=phi1, phi2=phi2, dphi1=dphi1, dphi2=dphi2)


def polar_decompose(traj: Trajectory) -> PolarTrajectory:
    """Polar form rho, theta (unwrapped), drho, dtheta of a trajectory.

    theta comes from the two-argument arctangent per sample, continued to
    the nearest branch; drho and dtheta are algebraic in the stored
    derivatives (no differencing).  Raises OriginCrossing when rho = 0 at
    a sample and BranchJump when the exact phase velocity advances the
    phase by >= pi between adjacent samples (the grid cannot represent
    the branch; silent unwrapping would alias it).
    """
    rho = np.hypot(traj.phi1, traj.phi2)
    if np.any(rho == 0.0):
        i = int(np.argmin(rho))
        raise OriginCrossing(f"rho = 0 at sample {i} (t = {traj.grid.start + i * traj.grid.step})")
    dtheta = first_integral(traj.phi1, traj.phi2, traj.dphi1, traj.dphi2) / rho**2
    if np.max(np.abs(dtheta)) * traj.grid.step >= np.pi:
        raise BranchJump(
            "adjacent samples advance the phase by >= pi; refine the time grid"
        )
    drho = (traj.phi1 * traj.dphi1 + traj.phi2 * traj.dphi2) / rho
    theta = np.unwrap(np.arctan2(traj.phi2, traj.phi1))
    return PolarTrajectory(params=traj.params, grid=traj.grid, rho=rho,
                           theta=theta, drho=drho, dtheta=dtheta,
                           c0=traj.c0, max_c0_drift=traj.max_c0_drift)


def every(traj, m: int):
    """``traj``, a Trajectory or PolarTrajectory, on every ``m``-th sample
    from the first; its arrays are views of the original's."""
    grid = UniformGrid(traj.grid.start, m * traj.grid.step, (traj.grid.count - 1) // m + 1)
    arrays = {k: v[::m] for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
    return replace(traj, grid=grid, **arrays)


def polar_ode_residuals(ptraj: PolarTrajectory, relative: bool = False) -> dict[str, float]:
    """Max residuals of the polar equations of motion in ``ptraj.params``,

        theta'' + 2 theta' rho' / rho = 0,
        rho''  - rho theta'^2 + k(t) rho = 0,

    with the second derivatives taken by fourth-order central differences
    on the sampled theta and rho (first derivatives are the stored
    algebraic ones).  Converges to zero at fourth order as the grid
    refines.

    With ``relative=True`` each residual is divided by the largest term
    magnitude appearing in its equation, giving a scale-free number that
    measures cancellation quality across regimes of any stiffness.
    Swept by ``residual_maxima``, so memory stays bounded.
    """
    def window(rows, t, sub):
        rho, dtheta = ptraj.rho[rows], ptraj.dtheta[rows]
        theta_dd = central_diff(SampledFunction(sub, ptraj.theta[rows]), order=2).values
        rho_dd = central_diff(SampledFunction(sub, rho), order=2).values
        coupling = 2.0 * dtheta * ptraj.drho[rows] / rho
        drive = dtheta**2 * rho
        restore = ptraj.params.k(t) * rho
        # dtheta^2 (of theta'' dimension) floors the theta scale: the other
        # two terms cancel identically in the static limit, where dividing
        # by them alone would compare noise to noise
        yield "theta", (theta_dd + coupling, theta_dd, coupling, dtheta**2)
        yield "rho", (rho_dd - drive + restore, drive, restore)
    return residual_maxima(ptraj.grid, window, relative)


def mathieu_residual(traj: Trajectory, relative: bool = False) -> float:
    """Sup norm of phi'' + k(t) phi over both components, k of ``traj.params``,
    phi'' by fourth-order central differences: O(V^(k+1)) plus quadrature and
    differencing error for a k-th Picard iterate.  With ``relative=True``
    each component's residual is divided by its own max |k(t) phi| before
    the larger is taken.
    Swept by ``residual_maxima``, so memory stays bounded."""
    def window(rows, t, sub):
        k = traj.params.k(t)
        for name, comp in (("phi1", traj.phi1[rows]), ("phi2", traj.phi2[rows])):
            kc = k * comp
            yield name, (central_diff(SampledFunction(sub, comp), order=2).values + kc, kc)
    return max(residual_maxima(traj.grid, window, relative).values())
