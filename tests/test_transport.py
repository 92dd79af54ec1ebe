import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow.functionals import FLOWS
from entroflow.grids import (
    DensityTrajectory,
    cumulative_cdf,
    gaussian_density,
    gradient_fd,
    integrate,
    make_uniform_grid,
    normalize,
    staggered_radial_grid,
)
from entroflow.pde import solve
from entroflow.transport import w2_1d
from oracles import (
    brute_force_w2_atoms,
    continuity_velocity,
    geodesic_hj_residual,
    mccann_geodesic,
    monotone_w2_atoms,
    path_action,
    w2_radial_profile,
)


@pytest.fixture(scope="module")
def grid():
    return make_uniform_grid(-8.0, 8.0, 2049)


@pytest.fixture(scope="module")
def fine_grid():
    return make_uniform_grid(-8.0, 8.0, 4097)


def geodesic_path(mu, nu, num_times, num_quantiles):
    """The McCann geodesic from ``mu`` to ``nu`` at ``num_times`` uniform
    times on [0, 1]."""
    times = np.linspace(0.0, 1.0, num_times)
    return DensityTrajectory(times, [mccann_geodesic(mu, nu, s, num_quantiles)
                                     for s in times])


def mixture(grid, params):
    vals = np.zeros_like(grid.nodes)
    for w, m, s in params:
        vals += w * np.exp(-0.5 * ((grid.nodes - m) / s) ** 2)
    return normalize(vals, grid)


# ---------------------------------------------------------------- w2

def test_w2_identity(grid):
    mu = gaussian_density(grid)
    assert w2_1d(mu, mu, 4096) == 0.0


def test_w2_translation(grid):
    mu = gaussian_density(grid)
    nu = gaussian_density(grid, mean=0.5)  # 64 grid cells, exactly representable
    assert w2_1d(nu, mu, 4096) == pytest.approx(0.5, abs=1e-6)


def test_w2_gaussians_closed_form(fine_grid):
    mu = gaussian_density(fine_grid, 0.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.5)
    exact = math.sqrt(1.0**2 + 0.5**2)
    assert w2_1d(mu, nu, 16384) == pytest.approx(exact, abs=1e-4)


def test_w2_rejects_radial(grid):
    radial = staggered_radial_grid(10.0, 64, 3)
    d = normalize(np.exp(-radial.nodes), radial)
    with pytest.raises(ValueError):
        w2_1d(d, d, 4096)
    with pytest.raises(ValueError):
        w2_radial_profile(gaussian_density(grid), gaussian_density(grid), 4096)


def test_w2_radial_profile_scaling_oracle():
    # |x| pushforward of N(0, s^2 Id_3) is a scaled chi_3 law, so quantiles
    # scale linearly and W2 = |s1 - s2| sqrt(E chi_3^2) = |s1 - s2| sqrt(3)
    g = staggered_radial_grid(15.0, 2048, 3)
    mu = normalize(np.exp(-0.5 * g.nodes**2), g)
    nu = normalize(np.exp(-0.5 * (g.nodes / 1.2) ** 2), g)
    assert w2_radial_profile(mu, nu, 4096) == pytest.approx(0.2 * math.sqrt(3.0), abs=1e-4)


def test_monotone_coupling_matches_brute_force_assignment():
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.normal(size=8)
        y = rng.normal(loc=0.5, size=8)
        assert abs(monotone_w2_atoms(x, y) - brute_force_w2_atoms(x, y)) <= 1e-12


def test_w2_symmetry_and_triangle(grid):
    a = mixture(grid, [(1.0, -1.0, 0.8)])
    b = mixture(grid, [(0.7, 0.5, 1.2), (0.3, -2.0, 0.5)])
    c = mixture(grid, [(1.0, 2.0, 1.0)])
    assert w2_1d(a, b, 4096) == w2_1d(b, a, 4096)
    assert w2_1d(a, c, 4096) <= w2_1d(a, b, 4096) + w2_1d(b, c, 4096) + 1e-8
    assert w2_1d(a, b, 4096) > 0.0  # distinct densities separate


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(-2, 2),
                          st.floats(0.5, 1.5)), min_size=1, max_size=2),
       st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(-2, 2),
                          st.floats(0.5, 1.5)), min_size=1, max_size=2),
       st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(-2, 2),
                          st.floats(0.5, 1.5)), min_size=1, max_size=2))
def test_w2_triangle_inequality_property(pa, pb, pc):
    g = make_uniform_grid(-8.0, 8.0, 513)
    a, b, c = mixture(g, pa), mixture(g, pb), mixture(g, pc)
    assert w2_1d(a, c, 1024) <= w2_1d(a, b, 1024) + w2_1d(b, c, 1024) + 1e-8


@settings(max_examples=20, deadline=None)
@given(m1=st.floats(-2, 2), s1=st.floats(0.5, 1.8),
       m2=st.floats(-2, 2), s2=st.floats(0.5, 1.8))
def test_w2_gaussian_formula_property(m1, s1, m2, s2):
    g = make_uniform_grid(-12.0, 12.0, 2049)
    mu = gaussian_density(g, m1, s1)
    nu = gaussian_density(g, m2, s2)
    exact = math.sqrt((m1 - m2) ** 2 + (s1 - s2) ** 2)
    assert w2_1d(mu, nu, 8192) == pytest.approx(exact, abs=2e-3)


def test_quantile_cost_matches_monge_cost():
    g = make_uniform_grid(-8.0, 8.0, 8193)
    mu = mixture(g, [(1.0, -0.5, 1.0)])
    nu = mixture(g, [(0.6, 1.0, 1.0), (0.4, -1.5, 1.0)])
    w2 = w2_1d(mu, nu, 65536)
    # independent Monge route: T = X_nu o F_mu from the full-resolution CDFs
    f_mu = cumulative_cdf(mu)
    f_mu = f_mu / f_mu[-1]
    f_nu = cumulative_cdf(nu)
    f_nu = f_nu / f_nu[-1]
    transport_map = np.interp(f_mu, f_nu, g.nodes)
    monge = integrate((g.nodes - transport_map) ** 2 * mu.values, g)
    assert w2**2 == pytest.approx(monge, abs=1e-6)


# ---------------------------------------------------------------- velocity

def test_velocity_of_stationary_pair(grid):
    mu = gaussian_density(grid)
    v = continuity_velocity(mu, mu, 0.1)
    assert np.max(np.abs(v)) == 0.0


def test_velocity_along_heat_flow_matches_entropy_gradient(grid):
    traj = solve(FLOWS["heat"], gaussian_density(grid), 1e-3, 0.12,
                 snapshot_every=10)
    before, after = traj.states[-2], traj.states[-1]
    dt = traj.times[-1] - traj.times[-2]
    v = continuity_velocity(before, after, dt)
    mid = 0.5 * (before.values + after.values)
    ref = -gradient_fd(np.log(mid), grid)
    err2 = integrate((v - ref) ** 2 * mid, grid)
    assert math.sqrt(err2) <= 2e-2


def test_velocity_of_translating_profile(grid):
    c, dt = 1.0, 0.125  # shift of 16 cells, exactly representable
    before = gaussian_density(grid, mean=0.0)
    after = gaussian_density(grid, mean=c * dt)
    v = continuity_velocity(before, after, dt)
    mid = 0.5 * (before.values + after.values)
    err2 = integrate((v - c) ** 2 * mid, grid)
    assert math.sqrt(err2) <= 2e-2


def test_velocity_flags_starved_region(grid):
    # move mass across a starved region: compactly supported bumps far apart
    x = grid.nodes
    before = normalize(np.exp(-40.0 * (x + 3.0) ** 2), grid)
    after = normalize(np.exp(-40.0 * (x - 3.0) ** 2), grid)
    with pytest.warns(UserWarning):
        continuity_velocity(before, after, 0.1)


# ---------------------------------------------------------------- otto inner
# <grad Phi, grad Psi>_mu = int grad Phi . grad Psi dmu

def test_otto_inner_zero_field(grid):
    mu = gaussian_density(grid)
    zero = np.zeros_like(grid.nodes)
    one = np.ones_like(grid.nodes)
    assert integrate(one * zero * mu.values, grid) == 0.0


def test_otto_inner_unit_fields(grid):
    mu = mixture(grid, [(0.5, -1.0, 0.7), (0.5, 1.0, 1.3)])
    one = np.ones_like(grid.nodes)
    assert integrate(one * one * mu.values, grid) == pytest.approx(1.0, abs=1e-12)


def test_otto_inner_second_moment(grid):
    mu = gaussian_density(grid)
    field = -grid.nodes
    assert integrate(field * field * mu.values, grid) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------- geodesics

def test_geodesic_endpoints(grid):
    mu = mixture(grid, [(1.0, -1.0, 0.8)])
    nu = mixture(grid, [(1.0, 1.5, 1.1)])
    for s, target in ((0.0, mu), (1.0, nu)):
        state = mccann_geodesic(mu, nu, s, 4096)
        assert integrate(np.abs(state.values - target.values), grid) <= 1e-3


def test_geodesic_between_gaussians_interpolates_parameters(fine_grid):
    mu = gaussian_density(fine_grid, -1.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.5)
    for s in (0.25, 0.5, 0.75):
        state = mccann_geodesic(mu, nu, s, 4096)
        mean = integrate(fine_grid.nodes * state.values, fine_grid)
        var = integrate(fine_grid.nodes**2 * state.values, fine_grid) - mean**2
        assert mean == pytest.approx(-1.0 + 2.0 * s, abs=1e-3)
        assert math.sqrt(var) == pytest.approx(1.0 + 0.5 * s, abs=1e-3)


def test_geodesic_constant_speed(fine_grid):
    mu = gaussian_density(fine_grid, 0.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.5)
    m = 16384
    w = w2_1d(mu, nu, m)
    for s, sp in ((0.0, 0.5), (0.25, 0.75), (0.3, 1.0)):
        d = w2_1d(mccann_geodesic(mu, nu, s, m), mccann_geodesic(mu, nu, sp, m), m)
        assert d == pytest.approx(abs(sp - s) * w, abs=1e-4)


def test_geodesic_rejects_bad_parameter(grid):
    mu = gaussian_density(grid)
    with pytest.raises(ValueError):
        mccann_geodesic(mu, mu, 1.5, 4096)


# ---------------------------------------------------------------- action

def test_action_of_constant_path(grid):
    mu = gaussian_density(grid)
    path = geodesic_path(mu, mu, num_times=9, num_quantiles=4096)
    assert path_action(path) <= 1e-20


def test_action_of_geodesic_equals_w2_squared(fine_grid):
    mu = gaussian_density(fine_grid, 0.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.5)
    m = 16384
    w2sq = w2_1d(mu, nu, m) ** 2
    action = path_action(geodesic_path(mu, nu, num_times=33, num_quantiles=m))
    assert action == pytest.approx(w2sq, rel=0.02)


def test_detour_path_has_larger_action(fine_grid):
    mu = gaussian_density(fine_grid, -1.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.0)
    detour_pivot = gaussian_density(fine_grid, 0.0, 2.0)
    m = 8192
    w2sq = w2_1d(mu, nu, m) ** 2
    first = geodesic_path(mu, detour_pivot, num_times=17, num_quantiles=m)
    second = geodesic_path(detour_pivot, nu, num_times=17, num_quantiles=m)
    states = first.states + second.states[1:]
    times = np.linspace(0.0, 1.0, len(states))
    detour = DensityTrajectory(times, states)
    assert path_action(detour) > w2sq + 0.1


# ---------------------------------------------------------------- HJ residual

def test_hj_residual_constant_path(grid):
    mu = gaussian_density(grid)
    path = geodesic_path(mu, mu, num_times=9, num_quantiles=4096)
    assert geodesic_hj_residual(path) <= 1e-12


def test_hj_residual_translation_geodesic(grid):
    mu = gaussian_density(grid, mean=-0.5)
    nu = gaussian_density(grid, mean=0.5)
    path = geodesic_path(mu, nu, num_times=17, num_quantiles=16384)
    assert geodesic_hj_residual(path) <= 1e-3


def test_hj_residual_gaussian_geodesic(fine_grid):
    mu = gaussian_density(fine_grid, 0.0, 1.0)
    nu = gaussian_density(fine_grid, 1.0, 1.5)
    path = geodesic_path(mu, nu, num_times=17, num_quantiles=16384)
    assert geodesic_hj_residual(path) <= 5e-2
