"""Split-step propagation against the analytic states, residual checks,
and the density-distance metric."""

import math
import warnings

import numpy as np
import pytest

from wavetrains import (
    AliasingRisk,
    ClassicalInit,
    FieldGrid,
    NormDeficitWarning,
    NormDrift,
    PropagatorConfig,
    TrainSpec,
    UniformGrid,
    build_space_grid,
    l2_density_distance,
    polar_decompose,
    propagation_grid,
    psi_on_grid,
    renormalized,
    solve_classical,
    split_step_evolve,
    train_frame,
)
from wavetrains.errors import GridMismatch, InvalidCount
from wavetrains.numerics import time_lattice
from wavetrains.splitstep import FOUR_STEP_ABOVE, four_step_fft, kick_phases

from conftest import COLLAPSE_PARAMS, SOLITON_PARAMS, STATIC_PARAMS
from references import full_kick_evolve, tdse_residual

TWO_PI = 2.0 * math.pi


def _gaussian_field(grid, t=0.0):
    x = grid.points()
    values = (math.pi ** -0.25) * np.exp(-0.5 * x * x).astype(complex)
    return renormalized(FieldGrid(grid=grid, t=t, values=values))


def _rectangle_fidelity(a, b):
    return abs(np.sum(np.conj(a.values) * b.values) * a.grid.step)


# ----------------------------------------------------------- configuration

def test_propagator_config_validation():
    grid = build_space_grid(0.0, 8.0, 512)
    with pytest.raises(InvalidCount):
        PropagatorConfig(grid=UniformGrid(-8.0, 16.0 / 500, 500), dt=1e-3)
    with pytest.raises(ValueError):
        PropagatorConfig(grid=grid, dt=0.0)
    with pytest.raises(ValueError):
        PropagatorConfig(grid=grid, dt=-1e-3)


# ------------------------------------------------------- stationary state

def test_ground_state_is_stationary(static_polar):
    grid = build_space_grid(0.0, 8.0, 512)
    spec = TrainSpec(n=0, b0=0.0, c0=static_polar.c0)
    psi0 = renormalized(psi_on_grid(train_frame(static_polar, spec, 0.0), grid))
    cfg = PropagatorConfig(grid=grid, dt=TWO_PI / 2048)
    (final,) = split_step_evolve(psi0, STATIC_PARAMS, cfg, TWO_PI)
    assert final.t == pytest.approx(TWO_PI, abs=1e-12)
    assert abs(_rectangle_fidelity(psi0, final) - 1.0) < 1e-8
    assert l2_density_distance(final, psi0) < 1e-8


def test_norm_preserved_over_many_steps(soliton_polar, soliton_spec):
    grid = propagation_grid(soliton_polar, soliton_spec)
    psi0 = renormalized(
        psi_on_grid(train_frame(soliton_polar, soliton_spec, 0.0), grid))
    cfg = PropagatorConfig(grid=grid, dt=1e-3)
    (final,) = split_step_evolve(psi0, SOLITON_PARAMS, cfg, 10.0)
    parseval = math.sqrt(float(np.sum(np.abs(final.values) ** 2)) * grid.step)
    assert abs(parseval - 1.0) < 1e-10


def test_soliton_propagation_tracks_analytic_density(soliton_polar,
                                                     soliton_spec):
    grid = propagation_grid(soliton_polar, soliton_spec)
    psi0 = renormalized(
        psi_on_grid(train_frame(soliton_polar, soliton_spec, 0.0), grid))
    cfg = PropagatorConfig(grid=grid, dt=TWO_PI / 4096)
    (final,) = split_step_evolve(psi0, SOLITON_PARAMS, cfg, TWO_PI)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        reference = psi_on_grid(train_frame(soliton_polar, soliton_spec,
                                            TWO_PI), grid)
    assert l2_density_distance(final, reference) < 1e-3


def test_record_times_come_back_in_order(static_polar):
    grid = build_space_grid(0.0, 8.0, 256)
    spec = TrainSpec(n=1, b0=0.0, c0=static_polar.c0)
    psi0 = renormalized(psi_on_grid(train_frame(static_polar, spec, 0.0), grid))
    cfg = PropagatorConfig(grid=grid, dt=TWO_PI / 512)
    times = [0.0, 0.25 * TWO_PI, TWO_PI]
    fields = split_step_evolve(psi0, STATIC_PARAMS, cfg, TWO_PI,
                               record_times=times)
    assert [f.t for f in fields] == pytest.approx(times, abs=1e-12)
    assert np.array_equal(fields[0].values, psi0.values)


# ------------------------------------------------------------ preconditions

def test_evolve_requires_unit_norm():
    grid = build_space_grid(0.0, 8.0, 256)
    field = _gaussian_field(grid)
    off = FieldGrid(grid=grid, t=0.0, values=1.01 * field.values)
    cfg = PropagatorConfig(grid=grid, dt=1e-2)
    with pytest.raises(ValueError):
        split_step_evolve(off, STATIC_PARAMS, cfg, 1e-1)


def test_evolve_rejects_mismatched_grid():
    field = _gaussian_field(build_space_grid(0.0, 8.0, 256))
    cfg = PropagatorConfig(grid=build_space_grid(0.0, 8.0, 512), dt=1e-2)
    with pytest.raises(GridMismatch):
        split_step_evolve(field, STATIC_PARAMS, cfg, 1e-1)


def test_evolve_rejects_offlattice_times():
    grid = build_space_grid(0.0, 8.0, 256)
    field = _gaussian_field(grid)
    cfg = PropagatorConfig(grid=grid, dt=1e-2)
    with pytest.raises(GridMismatch):
        split_step_evolve(field, STATIC_PARAMS, cfg, 0.505)
    with pytest.raises(GridMismatch):
        split_step_evolve(field, STATIC_PARAMS, cfg, 0.5,
                          record_times=[0.3051])
    with pytest.raises(ValueError):
        split_step_evolve(field, STATIC_PARAMS, cfg, -0.5)


def test_evolve_rejects_aliasing_risk():
    grid = build_space_grid(0.0, 60.0, 1024)
    field = _gaussian_field(grid)
    cfg = PropagatorConfig(grid=grid, dt=0.5)
    with pytest.raises(AliasingRisk):
        split_step_evolve(field, STATIC_PARAMS, cfg, 1.0)


def test_evolve_refuses_kick_past_nyquist():
    # a static-trap state squeezed from width 3 to 1/3 over pi/2; on 32
    # points over [-16, 16) the kick's edge wavenumber x_edge dt = 4 pi is
    # four times Nyquist (pi/dx = pi), k x_edge dt dx = 12.6, and with the
    # guard bypassed two steps of pi/4 miss the density by 0.8 (peak 1.7)
    half_pi = 0.5 * math.pi
    init = ClassicalInit(a=3.0, b=1.0 / 3.0, alpha=0.0, beta=-half_pi)
    ptraj = polar_decompose(solve_classical(STATIC_PARAMS, init, time_lattice(half_pi, 4096)))
    spec = TrainSpec(n=0, b0=0.0, c0=ptraj.c0)
    dt = 0.25 * math.pi
    coarse = build_space_grid(0.0, 16.0, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        psi0 = renormalized(psi_on_grid(train_frame(ptraj, spec, 0.0), coarse))
    with pytest.raises(AliasingRisk):
        split_step_evolve(psi0, STATIC_PARAMS, PropagatorConfig(coarse, dt), half_pi)
    # the same step on a grid 16x finer passes the guard and is right
    fine = build_space_grid(0.0, 16.0, 512)
    psi0 = renormalized(psi_on_grid(train_frame(ptraj, spec, 0.0), fine))
    (final,) = split_step_evolve(psi0, STATIC_PARAMS, PropagatorConfig(fine, dt), half_pi)
    exact = psi_on_grid(train_frame(ptraj, spec, half_pi), fine)
    assert l2_density_distance(final, exact) < 5e-3


def _collapse_start(collapse_polar, collapse_spec):
    grid = propagation_grid(collapse_polar, collapse_spec)
    return renormalized(psi_on_grid(train_frame(collapse_polar, collapse_spec, 0.0), grid))


def test_evolve_accepts_accuracy_step_on_collapse_grid(collapse_polar, collapse_spec):
    psi0 = _collapse_start(collapse_polar, collapse_spec)
    grid = psi0.grid
    dt = math.pi / 2048
    # the absolute edge phase k_max x_edge^2 dt / 2 is far past pi/2 (a cap
    # this step once failed), but the kick's edge wavenumber is far below
    # Nyquist
    k_max = COLLAPSE_PARAMS.u2 + abs(COLLAPSE_PARAMS.v)
    assert 0.5 * k_max * grid.start ** 2 * dt > 0.5 * math.pi
    assert k_max * abs(grid.start) * dt * grid.step < 1e-2
    (final,) = split_step_evolve(psi0, COLLAPSE_PARAMS, PropagatorConfig(grid, dt),
                                 0.5 * math.pi)
    exact = psi_on_grid(train_frame(collapse_polar, collapse_spec, 0.5 * math.pi), grid)
    assert l2_density_distance(final, exact) < 1e-6


def test_norm_drift_aborts_lossy_step(monkeypatch, collapse_polar, collapse_spec):
    psi0 = _collapse_start(collapse_polar, collapse_spec)
    cfg = PropagatorConfig(psi0.grid, math.pi / 2048)
    split_step_evolve(psi0, COLLAPSE_PARAMS, cfg, 16 * cfg.dt)  # healthy: no raise

    exact_fft = np.fft.fft

    def lossy_fft(a, axis=-1, out=None):
        return np.multiply(exact_fft(a, axis=axis), 1.001, out=out)

    monkeypatch.setattr(np.fft, "fft", lossy_fft)
    with pytest.raises(NormDrift):
        split_step_evolve(psi0, COLLAPSE_PARAMS, cfg, 16 * cfg.dt)


def test_factored_kick_matches_the_full_kick(collapse_polar, collapse_spec):
    # the kick is a row, a column and a Toeplitz factor from 511 phases on
    # 16384 points: psi after a quarter period (1024 steps) agrees with the
    # kick evaluated at every point
    psi0 = _collapse_start(collapse_polar, collapse_spec)
    grid = psi0.grid
    assert grid.start + (grid.count // 2) * grid.step == 0.0
    dt = math.pi / 2048
    (final,) = split_step_evolve(psi0, COLLAPSE_PARAMS, PropagatorConfig(grid, dt),
                                 0.5 * math.pi)
    reference = full_kick_evolve(psi0, COLLAPSE_PARAMS, dt, 1024)
    assert float(np.max(np.abs(final.values - reference))) <= 1e-12


def test_uncentred_grid_matches_the_full_kick(static_polar, static_spec):
    # an explicit grid whose point N/2 is not 0 takes the same factored
    # kick as a centred one
    grid = build_space_grid(0.5, 9.0, 256)
    assert grid.start + (grid.count // 2) * grid.step != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        psi0 = renormalized(psi_on_grid(train_frame(static_polar, static_spec, 0.0), grid))
    dt = math.pi / 256
    (final,) = split_step_evolve(psi0, STATIC_PARAMS, PropagatorConfig(grid, dt), 64 * dt)
    reference = full_kick_evolve(psi0, STATIC_PARAMS, dt, 64)
    assert float(np.max(np.abs(final.values - reference))) <= 1e-12


def test_uncentred_four_step_grid_matches_the_full_kick(static_polar, static_spec):
    # above the crossover the propagator transforms four-step, in its own
    # k-space order: the reference stays on numpy's 1-D FFT in natural order
    grid = build_space_grid(0.5, 9.0, 8192)
    assert grid.count > FOUR_STEP_ABOVE
    assert grid.start + (grid.count // 2) * grid.step != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        psi0 = renormalized(psi_on_grid(train_frame(static_polar, static_spec, 0.0), grid))
    dt = math.pi / 256
    (final,) = split_step_evolve(psi0, STATIC_PARAMS, PropagatorConfig(grid, dt), 64 * dt)
    reference = full_kick_evolve(psi0, STATIC_PARAMS, dt, 64)
    assert float(np.max(np.abs(final.values - reference))) <= 1e-12


@pytest.mark.parametrize("q", range(1, 17))
@pytest.mark.parametrize("center", [0.0, 0.5], ids=["centred", "uncentred"])
def test_kick_phases_factor_the_kick_phase(q, center):
    # row[r] + col[b] + diag[R - 1 - r + b] is -dt/2 x^2 at point rQ + b of
    # the R x Q view, for odd and even q; the product of the three factors
    # has unit modulus and is the kick at every point
    grid = build_space_grid(center, 9.0, 1 << q)
    dt = math.pi / 2048
    row, col, diag = kick_phases(grid, dt)
    rows, cols = len(row), len(col)
    assert rows == 1 << q // 2 and rows * cols == grid.count
    assert len(row) + len(col) + len(diag) == 2 * (rows + cols) - 1
    r, b = np.divmod(np.arange(grid.count), cols)
    exact = -0.5 * dt * grid.points() ** 2
    assert np.max(np.abs(row[r] + col[b] + diag[rows - 1 - r + b] - exact)) <= 1e-16
    k = COLLAPSE_PARAMS.u2 + COLLAPSE_PARAMS.v
    kick = (np.exp(1j * k * row)[r] * np.exp(1j * k * col)[b]
            * np.exp(1j * k * diag)[rows - 1 - r + b])
    assert np.max(np.abs(np.abs(kick) - 1.0)) <= 1e-15
    assert np.max(np.abs(kick - np.exp(1j * k * exact))) <= 1e-15


@pytest.mark.parametrize("q", range(1, 17))
def test_four_step_fft_matches_numpy(q):
    count = 1 << q
    rng = np.random.default_rng(q)
    x = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    forward, inverse, layout = four_step_fft(count)
    expected = np.fft.fft(x)
    a = x.copy()
    forward(a)
    assert np.max(np.abs(a - layout(expected))) <= 1e-14 * np.max(np.abs(expected))
    b = layout(x)
    inverse(b)
    expected = np.fft.ifft(x)
    assert np.max(np.abs(b - expected)) <= 1e-14 * np.max(np.abs(expected))


def _soliton_triplet(soliton_polar, soliton_spec, stride, grid):
    step = soliton_polar.grid.step
    i_mid = soliton_polar.grid.count // 8          # t0 = pi/2
    fields = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        for i in (i_mid - stride, i_mid, i_mid + stride):
            t = i * step
            fields.append(psi_on_grid(train_frame(soliton_polar, soliton_spec,
                                                  t), grid))
    return fields


def test_tdse_residual_second_order(soliton_polar, soliton_spec):
    res = {}
    for stride, count in ((64, 8192), (32, 16384)):
        grid = build_space_grid(0.0, 31.0, count)
        frames = _soliton_triplet(soliton_polar, soliton_spec, stride, grid)
        res[stride] = tdse_residual(frames, SOLITON_PARAMS)
    order = math.log2(res[64] / res[32])
    assert order > 1.9


def test_tdse_residual_scale_invariant(soliton_polar, soliton_spec):
    grid = build_space_grid(0.0, 31.0, 4096)
    frames = _soliton_triplet(soliton_polar, soliton_spec, 128, grid)
    base = tdse_residual(frames, SOLITON_PARAMS)
    scale = 3.0 * np.exp(0.7j)
    scaled = [FieldGrid(grid=f.grid, t=f.t, values=scale * f.values)
              for f in frames]
    assert abs(tdse_residual(scaled, SOLITON_PARAMS) - base) < 1e-13 * base


def test_tdse_residual_input_checks():
    grid = build_space_grid(0.0, 8.0, 256)
    f0 = _gaussian_field(grid, t=0.0)
    f1 = _gaussian_field(grid, t=0.1)
    f2 = _gaussian_field(grid, t=0.2)
    with pytest.raises(GridMismatch):
        tdse_residual([f0, f1], STATIC_PARAMS)
    with pytest.raises(GridMismatch):
        tdse_residual([f0, f1, _gaussian_field(grid, t=0.35)], STATIC_PARAMS)
    other = _gaussian_field(build_space_grid(0.0, 8.0, 512), t=0.2)
    with pytest.raises(GridMismatch):
        tdse_residual([f0, f1, other], STATIC_PARAMS)


# --------------------------------------------------------- density distance

def test_density_distance_identities():
    grid = build_space_grid(0.0, 8.0, 512)
    field = _gaussian_field(grid)
    assert l2_density_distance(field, field) == 0.0
    rotated = FieldGrid(grid=grid, t=field.t,
                        values=np.exp(1.3j) * field.values)
    assert l2_density_distance(field, rotated) < 1e-12
    with pytest.raises(GridMismatch):
        l2_density_distance(field, _gaussian_field(build_space_grid(0.0, 8.0,
                                                                    256)))


# ------------------------------------------------------------- grid sizing

def test_propagation_grid_soliton(soliton_polar, soliton_spec):
    grid = propagation_grid(soliton_polar, soliton_spec)
    assert grid.count >= 1024
    assert grid.count & (grid.count - 1) == 0
    assert grid.start < -20.0 and grid.stop > 20.0
    assert abs((grid.start + grid.stop) / 2.0) < grid.step
