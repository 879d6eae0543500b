"""Test-only references: plain composite Simpson, the TDSE residual, a
split-step propagation with the kick on every grid point, ``every``, a
trajectory on every m-th sample, the paper's ansatz written out, and the
energies of every level from one Hermite table.

The package integrates fields by the rectangle rule and time integrals by
``cumulative_simpson``; no command needs the first two functions below.
They stay here as independent checks: ``simpson`` of the Hermite norms and
of ``cumulative_simpson``'s endpoint, ``tdse_residual`` of split-step frames
(acceptance criterion 9).  ``full_kick_evolve`` is the check of the
factored kick (row, column and Toeplitz factors of ``kick_phases``) that
``split_step_evolve`` takes on every grid.  ``every`` gives the classical
and polar residual functions the trajectory that verify's streamed sweep
takes every m-th sample of, so the whole-array route stays its check.
``ansatz_psi`` is the check of ``trains.psi`` and its phase, and
``mean_energy_levels`` of the verify battery's ``level_energies``.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
from numpy.polynomial.hermite import hermval

from wavetrains import (
    FieldGrid,
    GridMismatch,
    TooFewPoints,
    TrapParameters,
    UniformGrid,
    field_integral,
    hermite_table,
    train_frame,
    xi_of,
)
from wavetrains.trains import _phase_rate


class QuadratureOrderWarning(UserWarning):
    """Simpson quadrature received an even sample count; the final interval
    used the trapezoid rule and the composite order is degraded."""


def simpson(y: np.ndarray, step: float):
    """Composite Simpson integral of samples ``y`` spaced ``step`` apart;
    O(step^4) for smooth integrands.

    An even sample count (odd interval count) degrades the final interval
    to the trapezoid rule and emits QuadratureOrderWarning.
    """
    n = y.shape[-1]
    if n < 3:
        raise TooFewPoints(f"Simpson needs >= 3 samples, got {n}")
    tail = 0.0
    if n % 2 == 0:
        warnings.warn(
            "even sample count: trapezoid rule on the last interval "
            "degrades the composite order",
            QuadratureOrderWarning,
            stacklevel=2,
        )
        tail = 0.5 * step * (y[-2] + y[-1])
        y = y[:-1]
    core = (step / 3.0) * (
        y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
    )
    return core + tail


def tdse_residual(fields: list[FieldGrid], params: TrapParameters) -> float:
    """Relative residual ||i psi_t + psi_xx/2 - k x^2 psi/2|| / ||psi|| at
    the middle of three equally spaced frames, all derivatives by central
    differences (second order in the frame spacing and grid step)."""
    if len(fields) != 3:
        raise GridMismatch("residual needs exactly three equally spaced frames")
    f0, f1, f2 = fields
    if f0.grid != f1.grid or f1.grid != f2.grid:
        raise GridMismatch("residual frames must share one grid")
    dt1 = f1.t - f0.t
    dt2 = f2.t - f1.t
    if abs(dt1 - dt2) > 1e-9 * max(abs(dt1), abs(dt2)):
        raise GridMismatch("residual frames must be equally spaced in time")
    grid = f1.grid
    x = grid.points()
    psi_t = (f2.values - f0.values) / (2.0 * dt1)
    psi_xx = np.empty_like(f1.values)
    v = f1.values
    h2 = grid.step * grid.step
    psi_xx[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    psi_xx[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    psi_xx[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    k = float(params.k(f1.t))
    resid = 1j * psi_t + 0.5 * psi_xx - 0.5 * k * x * x * v
    return math.sqrt(field_integral(np.abs(resid) ** 2, grid.step) / f1.norm)


def full_kick_evolve(field: FieldGrid, params: TrapParameters, dt: float,
                     n_steps: int) -> np.ndarray:
    """psi after ``n_steps`` Strang steps of ``dt`` from ``field``, in the
    operation order of ``split_step_evolve`` (half kinetic steps merged
    between steps), with the kick e^(-i k(t_mid) x^2 dt/2) evaluated at
    every point of the grid."""
    grid = field.grid
    p = 2.0 * math.pi * np.fft.fftfreq(grid.count, d=grid.step)
    half_kin = np.exp(-0.25j * p * p * dt)
    full_kin = half_kin * half_kin
    kick_base = -0.5 * dt * grid.points() ** 2
    kick = np.empty(grid.count, dtype=complex)
    psi = half_kin * np.fft.fft(field.values)
    for m in range(n_steps):
        psi = np.fft.ifft(psi)
        arg = kick_base * (params.u2 + params.v * math.cos(2.0 * (field.t + (m + 0.5) * dt)))
        kick.real, kick.imag = np.cos(arg), np.sin(arg)
        psi = np.fft.fft(psi * kick)
        psi *= half_kin if m + 1 == n_steps else full_kin
    return np.fft.ifft(psi)


def every(traj, m: int):
    """``traj``, a Trajectory or PolarTrajectory, on every ``m``-th sample
    from the first; its arrays are views of the original's."""
    grid = UniformGrid(traj.grid.start, m * traj.grid.step, (traj.grid.count - 1) // m + 1)
    arrays = {k: v[::m] for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
    return replace(traj, grid=grid, **arrays)


def ansatz_psi(n: int, b0: float, c0: float, rho: float, theta: float, drho: float,
               x: np.ndarray) -> np.ndarray:
    """The paper's ansatz psi_n = a_n H_n(e x - f) exp(-c x^2 + b x - f^2/2)
    at one polar sample, with dtheta = c0/rho^2 and H_n by ``hermval``:
    b = b0 e^(-i theta)/rho, c = dtheta/2 - i drho/(2 rho), e = sqrt(c0)/rho,
    f = (b0/sqrt(c0)) cos theta and
    a_n = [sqrt(c0)/(sqrt(pi) 2^n n! rho)]^(1/2) exp{-i[(1/2+n) theta - (b0^2/(4 c0)) sin 2 theta]}."""
    b = b0 * np.exp(-1j * theta) / rho
    c = 0.5 * c0 / rho**2 - 0.5j * drho / rho
    e = math.sqrt(c0) / rho
    f = b0 / math.sqrt(c0) * math.cos(theta)
    a_n = math.sqrt(math.sqrt(c0) / (math.sqrt(math.pi) * 2**n * math.factorial(n) * rho)) \
        * np.exp(-1j * ((0.5 + n) * theta - b0**2 / (4.0 * c0) * math.sin(2.0 * theta)))
    return a_n * hermval(e * x - f, [0] * n + [1]) * np.exp(-c * x * x + b * x - 0.5 * f * f)


def mean_energy_levels(ptraj, spec, t: float, grid: UniformGrid) -> np.ndarray:
    """``trains.mean_energy`` of every level m = 0 .. n sharing ``spec``'s b0
    and c0, with all R_m^2 taken from one ``hermite_table`` pass and each
    level integrated on its own, -int R_m^2 (quad x^2 - lin x + const_m) dx."""
    frame = train_frame(ptraj, spec, t)
    x = grid.points()
    args = (frame.rho, frame.theta, frame.drho, frame.dtheta, frame.k)
    quad, lin, _ = _phase_rate(spec, *args)
    theta_x = quad * x * x - lin * x
    scale = math.sqrt(frame.coeff.e)
    table = hermite_table(spec.n, xi_of(frame, x))
    consts = [_phase_rate(replace(spec, n=m), *args)[2] for m in range(len(table))]
    return np.array([-field_integral((scale * h) ** 2 * (theta_x + const), grid.step)
                     for h, const in zip(table, consts)])
