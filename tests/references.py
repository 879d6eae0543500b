"""Test-only references: plain composite Simpson, the TDSE residual, a
split-step propagation with the kick on every grid point, and ``every``,
a trajectory on every m-th sample.

The package integrates fields by the rectangle rule and time integrals by
``cumulative_simpson``; no command needs the first two functions below.
They stay here as independent checks: ``simpson`` of the Hermite norms and
of ``cumulative_simpson``'s endpoint, ``tdse_residual`` of split-step frames
(acceptance criterion 9).  ``full_kick_evolve`` is the check of the
factored kick (row, column and Toeplitz factors of ``kick_phases``) that
``split_step_evolve`` takes on every grid.  ``every`` gives the classical
and polar residual functions the trajectory that verify's streamed sweep
takes every m-th sample of, so the whole-array route stays its check.
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from wavetrains import (
    FieldGrid,
    GridMismatch,
    TooFewPoints,
    TrapParameters,
    UniformGrid,
    field_integral,
)


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
