"""Wave-train states: Hermite evaluation, coefficients, normalization,
orthogonality, center orbit, mean energy, and the coefficient-ODE checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_hermite

from wavetrains import (
    NegativeIndex,
    NonPositiveC0,
    NormDeficitWarning,
    TrainSpec,
    UniformGrid,
    auto_space_grid,
    build_space_grid,
    center_orbit,
    count_density_maxima,
    count_nodes,
    hermite_scaled,
    hermite_table,
    mean_energy_moments,
    overlap,
    propagation_grid,
    psi,
    psi_on_grid,
    train_frame,
    xi_of,
)
from wavetrains.errors import GridMismatch
from wavetrains.numerics import field_integral, time_lattice
from wavetrains.trains import (
    TrainFrame,
    amplitude,
    coefficients,
    gram_matrix,
    level_energies,
    live_window,
    mean_energy,
    verify_eq4,
)

from conftest import FOUR_PI
from references import ansatz_psi, every, mean_energy_levels, simpson


def _sample_times(ptraj, count):
    idx = np.unique(np.round(np.linspace(0, ptraj.grid.count - 1, count)).astype(int))
    return ptraj.grid.start + idx * ptraj.grid.step


# ----------------------------------------------------------- TrainSpec

def test_normalization_constant_matches_direct_formula():
    spec = TrainSpec(n=0, b0=0.0, c0=1.0)
    assert abs(spec.a0 - math.pi ** -0.25) < 1e-15

    spec8 = TrainSpec(n=8, b0=-10.0, c0=0.5)
    direct = math.sqrt(math.sqrt(0.5) / (math.sqrt(math.pi) * 2 ** 8
                                         * math.factorial(8)))
    assert abs(spec8.a0 - direct) < 1e-15 * direct


def test_trainspec_rejects_bad_input():
    with pytest.raises(NegativeIndex):
        TrainSpec(n=-1, b0=0.0, c0=1.0)
    with pytest.raises(NegativeIndex):
        TrainSpec(n=2.5, b0=0.0, c0=1.0)
    with pytest.raises(NonPositiveC0):
        TrainSpec(n=0, b0=0.0, c0=0.0)
    with pytest.raises(NonPositiveC0):
        TrainSpec(n=0, b0=0.0, c0=-0.5)
    with pytest.raises(NonPositiveC0):  # the c0 of an orbit whose Wronskian overflowed
        TrainSpec(n=0, b0=0.0, c0=math.nan)


# ----------------------------------------------------- Hermite functions

def test_hermite_ground_and_first():
    assert abs(hermite_scaled(0, 0.0) - math.pi ** -0.25) < 1e-15
    assert hermite_scaled(1, 0.0) == 0.0


def test_hermite_unit_norm():
    grid = UniformGrid(-20.0, 40.0 / 4000, 4001)
    xi = grid.points()
    for n in (0, 1, 5, 12, 20):
        h = hermite_scaled(n, xi)
        assert abs(simpson(h * h, grid.step) - 1.0) < 1e-10


def test_hermite_matches_polynomial_reference(rng):
    # independent route: raw physicists' Hermite polynomial + Gaussian
    xi = rng.uniform(-6.0, 6.0, size=50)
    for n in (0, 1, 2, 3, 7, 12, 25):
        norm = math.sqrt(math.sqrt(math.pi) * 2.0 ** n * math.factorial(n))
        ref = eval_hermite(n, xi) * np.exp(-0.5 * xi * xi) / norm
        assert np.allclose(hermite_scaled(n, xi), ref, rtol=1e-10, atol=1e-13)


def test_hermite_stays_finite_at_high_order():
    xi = np.linspace(-50.0, 50.0, 2001)
    h = hermite_scaled(200, xi)
    assert np.all(np.isfinite(h))
    assert float(np.max(np.abs(h))) < 1.0


def test_hermite_table_consistent_with_single(rng):
    xi = rng.uniform(-5.0, 5.0, size=17)
    table = hermite_table(10, xi)
    assert table.shape == (11, 17)
    for n in range(11):
        assert np.array_equal(table[n], hermite_scaled(n, xi))


def test_hermite_rejects_negative_index():
    with pytest.raises(NegativeIndex):
        hermite_scaled(-1, 0.0)
    with pytest.raises(NegativeIndex):
        hermite_table(-2, np.zeros(3))


# ------------------------------------------------------- train coordinate

def test_xi_examples(soliton_polar, soliton_spec):
    frame0 = train_frame(soliton_polar, soliton_spec, 0.0)
    # at t = 0: rho = 1, theta = 0, so xi(0) = -b0/sqrt(c0) = sqrt(200)
    assert abs(xi_of(frame0, 0.0) - math.sqrt(200.0)) < 1e-12

    centered = TrainSpec(n=2, b0=0.0, c0=soliton_spec.c0)
    frame_c = train_frame(soliton_polar, centered, 0.0)
    assert xi_of(frame_c, 0.0) == 0.0


def test_xi_vanishes_on_center_orbit(soliton_polar, soliton_spec):
    for t in _sample_times(soliton_polar, 11):
        frame = train_frame(soliton_polar, soliton_spec, float(t))
        xc = center_orbit(soliton_polar, soliton_spec, float(t))
        assert abs(xi_of(frame, xc)) < 1e-12


# ------------------------------------------------------------ coefficients

def test_coefficients_zero_phase_state():
    spec = TrainSpec(n=3, b0=2.0, c0=0.25)
    cs = coefficients(spec, rho=1.0, theta=0.0, drho=0.3, dtheta=0.25)
    assert cs.e == 0.5                      # sqrt(c0)
    assert cs.f == 4.0                      # b0/sqrt(c0)
    assert cs.b == 2.0 + 0.0j
    assert abs(cs.a_n - spec.a0) < 1e-15    # real at zero phase


def test_coefficients_centered_reduction():
    spec = TrainSpec(n=3, b0=0.0, c0=0.5)
    cs = coefficients(spec, rho=1.2, theta=0.8, drho=-0.1, dtheta=0.5 / 1.44)
    assert cs.b == 0.0 + 0.0j
    assert cs.f == 0.0
    expected = spec.a0 / math.sqrt(1.2) * np.exp(-1j * 3.5 * 0.8)
    assert abs(cs.a_n - expected) < 1e-15


def test_coefficients_soliton_initial(soliton_polar, soliton_spec):
    p = soliton_polar
    cs = coefficients(soliton_spec, p.rho[0], p.theta[0], p.drho[0], p.dtheta[0])
    assert abs(cs.e - math.sqrt(0.5)) < 1e-12
    assert abs(cs.f - (-10.0 / math.sqrt(0.5))) < 1e-12


def test_width_parameter_consistency(soliton_polar, soliton_spec):
    # e = sqrt(c0)/rho must equal sqrt(dtheta) -- the first integral restated
    idx = np.linspace(0, soliton_polar.grid.count - 1, 101).astype(int)
    e_rho = math.sqrt(soliton_spec.c0) / soliton_polar.rho[idx]
    e_theta = np.sqrt(soliton_polar.dtheta[idx])
    assert float(np.max(np.abs(e_rho - e_theta) / e_theta)) < 1e-8
    # |b| = |b0|/rho
    first = idx[:10]
    cs = coefficients(soliton_spec, soliton_polar.rho[first], soliton_polar.theta[first],
                      soliton_polar.drho[first], soliton_polar.dtheta[first])
    assert float(np.max(np.abs(np.abs(cs.b) - 10.0 / soliton_polar.rho[first]))) < 1e-12


# ------------------------------------------------------------- the states

def test_static_density_is_stationary_eigenstate(static_polar):
    x = np.linspace(-6.0, 6.0, 801)
    for n in (0, 3):
        spec = TrainSpec(n=n, b0=0.0, c0=static_polar.c0)
        f0 = train_frame(static_polar, spec, 0.0)
        f1 = train_frame(static_polar, spec, 2.0 * static_polar.grid.step * 512)
        d0 = np.abs(psi(f0, x)) ** 2
        d1 = np.abs(psi(f1, x)) ** 2
        assert np.allclose(d0, d1, atol=1e-12)
        assert np.allclose(d0, hermite_scaled(n, x) ** 2, atol=1e-12)


def test_norm_stays_unit_across_times_and_orders(soliton_polar, soliton_spec, rng):
    grid = auto_space_grid(soliton_polar, TrainSpec(n=10, b0=-10.0,
                                                    c0=soliton_spec.c0))
    times = soliton_polar.grid.step * rng.integers(
        0, soliton_polar.grid.count, size=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NormDeficitWarning)
        for n in range(11):
            spec = TrainSpec(n=n, b0=-10.0, c0=soliton_spec.c0)
            for t in times:
                field = psi_on_grid(train_frame(soliton_polar, spec, float(t)),
                                    grid)
                assert abs(field.norm - 1.0) < 1e-6
                assert not field.norm_deficit


def test_soliton_train_has_nine_packets(soliton_polar, soliton_spec):
    grid = auto_space_grid(soliton_polar, soliton_spec)
    for t in _sample_times(soliton_polar, 5):
        frame = train_frame(soliton_polar, soliton_spec, float(t))
        assert count_nodes(hermite_scaled(8, xi_of(frame, grid.points()))) == 8
        assert count_density_maxima(psi_on_grid(frame, grid)) == 9


def test_tiny_grid_raises_norm_deficit(soliton_polar, soliton_spec):
    frame = train_frame(soliton_polar, soliton_spec, 0.0)
    tiny = build_space_grid(0.0, 0.5, 64)  # misses the packet at x = -20
    with pytest.warns(NormDeficitWarning):
        field = psi_on_grid(frame, tiny)
    assert field.norm_deficit


def test_collapse_state_is_unit_on_propagation_grid(collapse_polar, collapse_spec):
    # regression guard: on this grid Simpson's alternating weights read the
    # squeezed collapse state's norm as 0.99934 and warned falsely
    grid = propagation_grid(collapse_polar, collapse_spec)
    assert grid.count == 16384
    with warnings.catch_warnings():
        warnings.simplefilter("error", NormDeficitWarning)
        field = psi_on_grid(train_frame(collapse_polar, collapse_spec, 0.0), grid)
    assert abs(field.norm - 1.0) < 1e-6
    assert not field.norm_deficit


def test_centered_states_have_even_density(static_polar):
    x = np.linspace(-7.0, 7.0, 1001)
    for n in (2, 5):
        spec = TrainSpec(n=n, b0=0.0, c0=static_polar.c0)
        frame = train_frame(static_polar, spec, 0.0)
        r = amplitude(frame, x)
        assert np.array_equal(r, (-1.0) ** n * amplitude(frame, -x))
        d = np.abs(psi(frame, x)) ** 2
        assert np.allclose(d, d[::-1], atol=1e-15)


@given(n=st.integers(0, 10), b0=st.floats(-3.0, 3.0), c0=st.floats(0.5, 2.0),
       rho=st.floats(0.5, 2.0), theta=st.floats(-20.0, 20.0), drho=st.floats(-1.0, 1.0))
def test_psi_matches_the_ansatz(n, b0, c0, rho, theta, drho):
    # psi_n, amplitude and phase, on |xi| <= 8 against the paper's ansatz
    # written out from the polar sample (references.ansatz_psi); the ranges
    # keep every phase term below about 10^3 rad, where the two roundings
    # stay far inside 1e-12 of max |psi|
    frame = TrainFrame(t=0.0, rho=rho, theta=theta, drho=drho, dtheta=c0 / rho**2, k=0.0,
                       spec=TrainSpec(n=n, b0=b0, c0=c0))
    e, f = math.sqrt(c0) / rho, b0 / math.sqrt(c0) * math.cos(theta)
    x = (f + np.linspace(-8.0, 8.0, 401)) / e
    reference = ansatz_psi(n, b0, c0, rho, theta, drho, x)
    assert np.max(np.abs(psi(frame, x) - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_node_count_tracks_quantum_number(soliton_polar):
    t = float(_sample_times(soliton_polar, 7)[3])
    for n in range(11):
        spec = TrainSpec(n=n, b0=-10.0, c0=soliton_polar.c0)
        frame = train_frame(soliton_polar, spec, t)
        x = auto_space_grid(soliton_polar, spec).points()
        assert count_nodes(hermite_scaled(n, xi_of(frame, x))) == n


def test_node_count_sees_unresolved_collapse(collapse_polar, collapse_spec):
    # 1024 points over the whole orbit: dx = 2.1 resolves the spread train
    # at t = pi but not the collapsed one (width ~0.06) at t = 0 and 2pi,
    # which the node count must report instead of n
    grid_spec = TrainSpec(n=8, b0=collapse_spec.b0, c0=collapse_spec.c0)
    x = auto_space_grid(collapse_polar, grid_spec, count=1024).points()
    fine = auto_space_grid(collapse_polar, grid_spec).points()
    for t, expected in ((0.0, 0), (math.pi, 4), (2.0 * math.pi, 0)):
        frame = train_frame(collapse_polar, collapse_spec, t)
        assert count_nodes(hermite_scaled(4, xi_of(frame, x))) == expected
        assert count_nodes(hermite_scaled(4, xi_of(frame, fine))) == 4


# ------------------------------------------------------------ center orbit

def test_center_orbit_values(soliton_traj, soliton_polar, soliton_spec):
    assert abs(center_orbit(soliton_polar, soliton_spec, 0.0) - (-20.0)) < 1e-9
    # the polar form rho cos(theta) against (b0/c0) phi1 of the Cartesian
    # trajectory
    t = np.linspace(0.0, FOUR_PI, 33)
    assert np.allclose(center_orbit(soliton_polar, soliton_spec, t),
                       (soliton_spec.b0 / soliton_spec.c0)
                       * np.interp(t, soliton_traj.t, soliton_traj.phi1),
                       atol=1e-9)


def test_center_orbit_fixed_when_centered(soliton_polar):
    spec = TrainSpec(n=8, b0=0.0, c0=soliton_polar.c0)
    t = np.linspace(0.0, FOUR_PI, 57)
    assert np.array_equal(center_orbit(soliton_polar, spec, t), np.zeros(57))


# ---------------------------------------------------------------- overlaps

def test_orthonormal_family(soliton_polar, soliton_spec):
    grid = auto_space_grid(soliton_polar, soliton_spec)
    t = float(_sample_times(soliton_polar, 9)[5])
    fields = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        for n in range(6):
            spec = TrainSpec(n=n, b0=-10.0, c0=soliton_spec.c0)
            fields.append(psi_on_grid(train_frame(soliton_polar, spec, t), grid))
    for m in range(6):
        assert abs(overlap(fields[m], fields[m]) - 1.0) < 1e-6
        for n in range(m + 1, 6):
            assert abs(overlap(fields[m], fields[n])) < 1e-6


@pytest.mark.parametrize("fixture", ["soliton", "collapse", "static"])
def test_gram_matches_state_quadratures(request, fixture):
    # at the verify battery's 11 check times on its n = 8 grid, the
    # one-table Gram matrix against the norm of the fixture's psi_on_grid
    # state and the per-pair rectangle-rule integrals of R_m R_n
    ptraj = request.getfixturevalue(f"{fixture}_polar")
    spec = request.getfixturevalue(f"{fixture}_spec")
    grid = auto_space_grid(ptraj, TrainSpec(n=8, b0=spec.b0, c0=spec.c0))
    x = grid.points()
    for t in _sample_times(ptraj, 11):
        frame = train_frame(ptraj, spec, float(t))
        table = hermite_table(8, xi_of(frame, x))
        gram = gram_matrix(frame, table, grid.step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormDeficitWarning)
            assert abs(gram[spec.n, spec.n] - psi_on_grid(frame, grid).norm) <= 1e-12
        weight = math.sqrt(spec.c0) / frame.rho
        for m in range(9):
            for n in range(m, 9):
                pair = float(field_integral(table[m] * table[n], grid.step)) * weight
                assert abs(gram[m, n] - pair) <= 1e-12
                assert abs(gram[n, m] - pair) <= 1e-12


def test_overlap_rejects_mismatched_fields(soliton_polar, soliton_spec):
    grid_a = build_space_grid(0.0, 30.0, 512)
    grid_b = build_space_grid(0.0, 30.0, 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDeficitWarning)
        fa = psi_on_grid(train_frame(soliton_polar, soliton_spec, 0.0), grid_a)
        fb = psi_on_grid(train_frame(soliton_polar, soliton_spec, 0.0), grid_b)
        t1 = soliton_polar.grid.step * 4096
        fa_later = psi_on_grid(train_frame(soliton_polar, soliton_spec, t1), grid_a)
    with pytest.raises(GridMismatch):
        overlap(fa, fb)
    with pytest.raises(GridMismatch):
        overlap(fa, fa_later)


# -------------------------------------------------------------- mean energy

def test_static_spectrum_is_half_integer(static_polar):
    grid = build_space_grid(0.0, 8.0, 1024)
    for n in range(7):
        spec = TrainSpec(n=n, b0=0.0, c0=static_polar.c0)
        e = mean_energy(static_polar, spec, 0.0, grid)
        assert abs(e - (n + 0.5)) < 1e-9
        idx = np.arange(0, static_polar.grid.count, 97)
        closed = mean_energy_moments(static_polar, spec, idx)
        assert closed.shape == idx.shape
        assert float(np.max(np.abs(closed - (n + 0.5)))) < 1e-9


def test_energy_ladder_is_affine(soliton_polar, soliton_spec):
    grid = auto_space_grid(soliton_polar, soliton_spec)
    for t in _sample_times(soliton_polar, 10):
        energies = [mean_energy(soliton_polar,
                                TrainSpec(n=n, b0=-10.0, c0=soliton_spec.c0),
                                float(t), grid)
                    for n in range(8)]
        diffs = np.diff(energies)
        assert float(np.max(np.abs(diffs - diffs[0]))) < 1e-6 * abs(diffs[0])
    # ladder at t = 0 is a clean straight line in n
    coeffs = np.polyfit(np.arange(8), energies, deg=1)
    fit = np.polyval(coeffs, np.arange(8))
    assert float(np.max(np.abs(fit - energies))) < 1e-6 * abs(coeffs[0])


def test_energy_levels_match_per_level_quadrature(collapse_polar):
    # one Hermite table per time gives each level bit for bit what the
    # per-level quadrature -int R_m^2 dTheta_m/dt dx of mean_energy gives
    grid = auto_space_grid(collapse_polar, TrainSpec(n=8, b0=0.02, c0=collapse_polar.c0))
    for t in _sample_times(collapse_polar, 3):
        levels = mean_energy_levels(collapse_polar,
                                    TrainSpec(n=7, b0=0.02, c0=collapse_polar.c0),
                                    float(t), grid)
        for m in range(8):
            spec = TrainSpec(n=m, b0=0.02, c0=collapse_polar.c0)
            assert levels[m] == mean_energy(collapse_polar, spec, float(t), grid)


def test_level_energies_of_a_longer_table_match_mean_energy_levels(collapse_polar):
    # the verify battery takes E_0..E_7 from the first rows of its n = 8
    # table on the live window and from its Gram diagonal: within 1e-13
    # relative of what mean_energy_levels integrates level by level
    grid = auto_space_grid(collapse_polar, TrainSpec(n=8, b0=0.02, c0=collapse_polar.c0))
    x = grid.points()
    for t in _sample_times(collapse_polar, 3):
        frame = train_frame(collapse_polar, TrainSpec(n=4, b0=0.02, c0=collapse_polar.c0),
                            float(t))
        xw = x[live_window(frame, grid)]
        table = hermite_table(8, xi_of(frame, xw))
        gram = gram_matrix(frame, table, grid.step)
        levels = mean_energy_levels(collapse_polar,
                                    TrainSpec(n=7, b0=0.02, c0=collapse_polar.c0),
                                    float(t), grid)
        energies = level_energies(frame, table[:8], xw, grid.step, gram)
        assert np.all(np.abs(energies - levels) <= 1e-13 * np.abs(levels))


def test_level_energies_do_not_call_blas_dot(collapse_polar, monkeypatch):
    # a BLAS dot wakes OpenBLAS's thread pool, which then spins beside the
    # verify battery's PDE child process; the weighted sums stay in einsum
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.dot reached")

    spec = TrainSpec(n=4, b0=0.02, c0=collapse_polar.c0)
    grid = auto_space_grid(collapse_polar, TrainSpec(n=8, b0=0.02, c0=collapse_polar.c0))
    frame = train_frame(collapse_polar, spec, float(_sample_times(collapse_polar, 3)[1]))
    xw = grid.points()[live_window(frame, grid)]
    table = hermite_table(8, xi_of(frame, xw))
    gram = gram_matrix(frame, table, grid.step)
    expected = level_energies(frame, table, xw, grid.step, gram)
    monkeypatch.setattr(np, "dot", refuse)
    got = level_energies(frame, table, xw, grid.step, gram)
    assert np.array_equal(got, expected)


def _assert_live_window(frame, grid):
    # the full-grid table is exactly 0.0 outside the live window, and the
    # table written on the window into a wider buffer is the full-grid one
    # inside it bit for bit
    x = grid.points()
    full = hermite_table(8, xi_of(frame, x))
    window = live_window(frame, grid)
    outside = np.ones(grid.count, dtype=bool)
    outside[window] = False
    assert not np.any(full[:, outside])
    buffer = np.empty((9, grid.count))
    width = len(x[window])
    table = hermite_table(8, xi_of(frame, x[window]), out=buffer[:, :width])
    assert table.base is buffer
    assert np.array_equal(table.view(np.int64), full[:, window].view(np.int64))
    return width


@pytest.mark.parametrize("fixture", ["soliton", "collapse", "static"])
def test_live_window_holds_every_nonzero_column(request, fixture):
    # at the verify battery's 11 check times on its n = 8 grid
    ptraj = request.getfixturevalue(f"{fixture}_polar")
    spec = request.getfixturevalue(f"{fixture}_spec")
    grid = auto_space_grid(ptraj, TrainSpec(n=8, b0=spec.b0, c0=spec.c0))
    for t in _sample_times(ptraj, 11):
        assert _assert_live_window(train_frame(ptraj, spec, float(t)), grid) > 0


@given(rho=st.floats(1e-3, 1e3), theta=st.floats(-10.0, 10.0), b0=st.floats(-50.0, 50.0),
       c0=st.floats(1e-2, 1e2), center=st.floats(-300.0, 300.0),
       half_width=st.floats(1e-2, 1e3), power=st.integers(1, 12))
def test_live_window_of_drawn_frames(rho, theta, b0, c0, center, half_width, power):
    # any frame on any explicit grid, the state on, partly on or off it
    frame = TrainFrame(t=0.0, rho=rho, theta=theta, drho=0.0, dtheta=c0 / rho**2, k=0.0,
                       spec=TrainSpec(n=4, b0=b0, c0=c0))
    _assert_live_window(frame, build_space_grid(center, half_width, 2**power))


def test_mean_energy_matches_moment_oracle(soliton_polar, collapse_polar):
    # independent evaluation through the exact second moment
    # <x^2> = rho^2 (n + 1/2)/c0 + x_c^2 instead of grid quadrature; both
    # the quadrature and the vectorized closed form are held to it, and to
    # each other
    for ptraj, b0 in ((soliton_polar, -10.0), (collapse_polar, 0.02)):
        for n in (0, 4, 8):
            spec = TrainSpec(n=n, b0=b0, c0=ptraj.c0)
            grid = auto_space_grid(ptraj, TrainSpec(n=8, b0=b0, c0=ptraj.c0))
            times = _sample_times(ptraj, 5)
            idx = np.array([ptraj.grid.index_of(float(t)) for t in times])
            closed = mean_energy_moments(ptraj, spec, idx)
            for t, i, closed_t in zip(times, idx, closed):
                rho, theta = float(ptraj.rho[i]), float(ptraj.theta[i])
                drho, dtheta = float(ptraj.drho[i]), float(ptraj.dtheta[i])
                k = float(ptraj.params.k(float(t)))
                xc = (b0 / spec.c0) * rho * math.cos(theta)
                x2 = rho ** 2 * (n + 0.5) / spec.c0 + xc ** 2
                quad = 0.5 * (dtheta ** 2 - k) - 0.5 * drho ** 2 / rho ** 2
                lin = b0 * (dtheta * math.cos(theta) * rho
                            - drho * math.sin(theta)) / rho ** 2
                const = (b0 ** 2 / (2.0 * spec.c0)) * dtheta \
                    * math.cos(2.0 * theta) - (0.5 + n) * dtheta
                expected = -(quad * x2 - lin * xc + const)
                measured = mean_energy(ptraj, spec, float(t), grid)
                assert abs(measured - expected) < 1e-10 * max(1.0, abs(expected))
                assert abs(closed_t - expected) < 1e-10 * max(1.0, abs(expected))
                assert abs(closed_t - measured) < 1e-10 * max(1.0, abs(measured))


# --------------------------------------------------- coefficient-ODE checks

def test_coefficient_odes_static_limit():
    # closed-form regime: residuals sit at the differencing floor.  The
    # a-equation is checked in logarithmic form, so its floor scales as
    # ((n + 1/2) dtheta)^3 h^2 / 3 -- the ground state at step 2e-4 puts
    # every equation below 1e-8
    from wavetrains import solve_classical, polar_decompose
    from conftest import STATIC_PARAMS, STATIC_INIT
    traj = solve_classical(STATIC_PARAMS, STATIC_INIT, time_lattice(0.2, 1000))
    spec = TrainSpec(n=0, b0=0.0, c0=traj.c0)
    res = verify_eq4(polar_decompose(traj), spec)
    for key in ("c", "b", "e", "f", "a"):
        assert res[key] < 1e-8


def test_coefficient_odes_fourth_order(soliton_polar, soliton_spec):
    # strides 64 -> 32 of the soliton trajectory: every residual falls
    # about 14-16x
    res = {stride: verify_eq4(every(soliton_polar, stride), soliton_spec)
           for stride in (64, 32)}
    for key in ("c", "b", "e", "f", "a"):
        assert res[64][key] / res[32][key] > 12.0


# ------------------------------------------------------------ grid sizing

def test_auto_grid_covers_orbit_and_resolves_packets(soliton_polar, soliton_spec):
    grid = auto_space_grid(soliton_polar, soliton_spec)
    xc = (soliton_spec.b0 / soliton_spec.c0) * soliton_polar.rho \
        * np.cos(soliton_polar.theta)
    sc = math.sqrt(soliton_spec.c0)
    w = 8.0 * float(np.max(soliton_polar.rho)) / sc * math.sqrt(17.0)
    assert grid.start <= float(np.min(xc)) - 0.99 * w
    assert grid.stop >= float(np.max(xc)) + 0.98 * w
    sigma_min = float(np.min(soliton_polar.rho)) / sc
    assert grid.step <= 2.0 * math.pi * sigma_min / (16.0 * math.sqrt(17.0))
    assert grid.count & (grid.count - 1) == 0
