"""Shared fixtures: the three reference parameter sets and their classical
trajectories, solved once per session at the resolution the acceptance
criteria need, and the closed-form single Picard pass of eq. (14)."""

import math

import numpy as np
import pytest

from wavetrains import (
    ClassicalInit,
    TrainSpec,
    TrapParameters,
    polar_decompose,
    solve_classical,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

SOLITON_PARAMS = TrapParameters(u2=0.25, v=0.05)
SOLITON_INIT = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-0.5 * math.pi)

COLLAPSE_PARAMS = TrapParameters(u2=0.25, v=0.05)
COLLAPSE_INIT = ClassicalInit(a=0.02, b=10.0, alpha=0.0, beta=-0.5 * math.pi)

STATIC_PARAMS = TrapParameters(u2=1.0, v=0.0)
STATIC_INIT = ClassicalInit(a=1.0, b=1.0, alpha=0.0, beta=-0.5 * math.pi)


@pytest.fixture(scope="session")
def soliton_traj():
    # step 4pi/131072 = 9.587e-5 <= 1e-4, and a power-of-two count so the
    # samples line up with coarser comparison grids exactly
    return solve_classical(SOLITON_PARAMS, SOLITON_INIT, (0.0, FOUR_PI),
                           FOUR_PI / 131072)


@pytest.fixture(scope="session")
def soliton_polar(soliton_traj):
    return polar_decompose(soliton_traj)


@pytest.fixture(scope="session")
def soliton_spec(soliton_polar):
    return TrainSpec(n=8, b0=-10.0, c0=soliton_polar.c0)


@pytest.fixture(scope="session")
def soliton_polar_8pi():
    # two center-orbit periods, for period measurements
    traj = solve_classical(SOLITON_PARAMS, SOLITON_INIT, (0.0, 8.0 * math.pi),
                           8.0 * math.pi / 65536)
    return polar_decompose(traj)


@pytest.fixture(scope="session")
def collapse_traj():
    # one full envelope period [0, 2pi]
    return solve_classical(COLLAPSE_PARAMS, COLLAPSE_INIT, (0.0, TWO_PI),
                           TWO_PI / 65536)


@pytest.fixture(scope="session")
def collapse_polar(collapse_traj):
    return polar_decompose(collapse_traj)


@pytest.fixture(scope="session")
def collapse_spec(collapse_polar):
    return TrainSpec(n=4, b0=0.02, c0=collapse_polar.c0)


@pytest.fixture(scope="session")
def static_traj():
    return solve_classical(STATIC_PARAMS, STATIC_INIT, (0.0, FOUR_PI),
                           FOUR_PI / 16384)


@pytest.fixture(scope="session")
def static_polar(static_traj):
    return polar_decompose(static_traj)


@pytest.fixture(scope="session")
def static_spec(static_polar):
    return TrainSpec(n=8, b0=0.0, c0=static_polar.c0)


def eq14_reference(t):
    """Closed-form single-pass iterate for the benchmark drive
    U = 0.5, V = 0.05, A = B = 1, alpha = 0, beta = -pi/2.

    Evaluating the two integrals of one Picard pass in closed form (plain
    trigonometric integration, re-derivable with any CAS) gives

        phi1 = cos(t/2) + (V/U) [ cos(3t/2)/8 + cos(5t/2)/24 - cos(t/2)/6 ],
        phi2 = sin(t/2) + (V/U) [ sin(t/2)/6  - sin(3t/2)/8  + sin(5t/2)/24 ].

    An independent fixture for ``picard_iterate``.  Returns the pair
    (phi1, phi2), vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    c = 0.05 / 0.5
    phi1 = (np.cos(0.5 * t)
            + c * (np.cos(1.5 * t) / 8.0 + np.cos(2.5 * t) / 24.0
                   - np.cos(0.5 * t) / 6.0))
    phi2 = (np.sin(0.5 * t)
            + c * (np.sin(0.5 * t) / 6.0 - np.sin(1.5 * t) / 8.0
                   + np.sin(2.5 * t) / 24.0))
    if phi1.ndim == 0:
        return float(phi1), float(phi2)
    return phi1, phi2


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)


# one [PASS]/[FAIL] line per acceptance criterion, echoed at the end of the
# terminal run so the summary is visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
