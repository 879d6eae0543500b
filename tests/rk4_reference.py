"""Reference RK4: the generic callback loop, one Python iteration per step.

``wavetrains.solve_classical`` composes RK4 step matrices instead; this
loop is the independent reference it is tested against.
"""

import math

import numpy as np

from wavetrains import NonFiniteValue, UniformGrid, unperturbed_solution


def rk4_integrate(rhs, y0, grid: UniformGrid) -> np.ndarray:
    """Classic fixed-step fourth-order Runge-Kutta.

    ``rhs(t, y) -> dy/dt`` with y a 1-D state vector.  Returns the states
    at every grid point, shape (grid.count, len(y0)).  Global error is
    O(step^4) for smooth right-hand sides.
    """
    y = np.asarray(y0, dtype=float if not np.iscomplexobj(y0) else complex).ravel()
    out = np.empty((grid.count, y.size), dtype=y.dtype)
    out[0] = y
    h = grid.step
    h2 = 0.5 * h
    h6 = h / 6.0
    t = grid.start
    isfinite = np.isfinite
    for i in range(1, grid.count):
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + h2, y + h2 * k1))
        k3 = np.asarray(rhs(t + h2, y + h2 * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(y).all():
            raise NonFiniteValue(f"RK4 state became non-finite at t = {t + h}")
        t = grid.start + i * h
        out[i] = y
    return out


def loop_classical(params, init, grid: UniformGrid):
    """phi1, phi2, dphi1, dphi2 of phi'' = -k(t) phi on ``grid`` by the
    loop above, from the initial data ``solve_classical`` uses."""
    phi1, phi2, dphi1, dphi2 = unperturbed_solution(init, params, 0.0)
    u2, v = params.u2, params.v

    def rhs(t, y):
        kk = u2 + v * math.cos(2.0 * t)
        return np.array([y[1], -kk * y[0], y[3], -kk * y[2]])

    ys = rk4_integrate(rhs, [phi1, dphi1, phi2, dphi2], grid)
    return ys[:, 0], ys[:, 2], ys[:, 1], ys[:, 3]
