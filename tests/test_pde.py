import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from entroflow import functionals, pde
from entroflow.functionals import FreeEnergy
from entroflow.grids import (
    DensityTrajectory,
    Grid,
    GridDensity,
    gaussian_density,
    integrate,
    make_uniform_grid,
    normalize,
    sphere_area,
    staggered_radial_grid,
)
from entroflow.pde import (
    FLOWS,
    MAX_STEPS,
    SolverError,
    SymmetrizedLDL,
    _bernoulli,
    _brentq,
    _fd_tail_mass,
    _linear_step_matrix,
    dirac_like_density,
    flux_bands,
    solve,
    solve_banded,
    stationary_fd,
    stationary_state,
    step_count,
    write_report_csv,
)
from oracles import (
    barenblatt_width_state,
    de_bruijn_pde_check,
    ou_gaussian_state,
    trajectory_report,
)


def exact_heat_gaussian(grid, t, sigma0=1.0):
    var = sigma0**2 + 2.0 * t
    return np.exp(-0.5 * grid.nodes**2 / var) / math.sqrt(2.0 * math.pi * var)


@pytest.fixture(scope="module")
def heat_run():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    return solve(FLOWS["heat"], gaussian_density(grid), 2e-4, 0.5,
                 snapshot_every=50)


@pytest.fixture(scope="module")
def fp_run():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    return solve(FLOWS["fokker_planck"], gaussian_density(grid, mean=1.0), 1e-3, 1.5,
                 snapshot_every=50)


@pytest.fixture(scope="module")
def fd_setup():
    grid = staggered_radial_grid(10.0, 384, 3)
    with pytest.warns(UserWarning):
        stat = stationary_fd(grid)
    return grid, stat


# ---------------------------------------------------------------- validation

@pytest.fixture
def no_steps(monkeypatch):
    """Make any step fail, so that a rejection is seen to precede the first."""
    def step(*args):
        raise AssertionError("solve stepped before rejecting its input")
    monkeypatch.setattr(pde, "_linear_step_matrix", step)
    monkeypatch.setattr(pde, "_fd_newton_step", step)


def test_solve_rejections(no_steps):
    line = make_uniform_grid(-8.0, 8.0, 65)
    radial = staggered_radial_grid(10.0, 64, 3)
    heat, fd = FLOWS["heat"], FLOWS["fast_diffusion"]
    cases = [
        (heat, line, -1.0, 1),                                   # dt <= 0
        (heat, radial, 0.1, 1),                                  # geometry
        (fd, line, 0.1, 1),
        (fd, staggered_radial_grid(10.0, 64, 2), 0.1, 1),        # n <= 2
        ("porous", line, 0.1, 1),                                # not a model
        (FreeEnergy(power_law=True), radial, 0.1, 1),            # not a flow
        (heat, line, 0.1, 0),                                    # snapshot_every
    ]
    for model, grid, dt, snapshot_every in cases:
        with pytest.raises(ValueError):
            solve(model, normalize(np.ones(grid.num_nodes), grid), dt, 1.0,
                  snapshot_every)
    densities = [
        (GridDensity(line, np.full(65, 1.01 / 16.0)), "unit mass"),
        (normalize(np.where(line.nodes < 0.0, 1.0, 0.0), line), "strictly positive"),
    ]
    for mu0, message in densities:
        with pytest.raises(ValueError, match=message):
            solve(heat, mu0, 0.1, 1.0)


@pytest.mark.parametrize("horizon", [0.0015, 0.0014])
def test_solve_rejects_horizon_off_the_time_grid(horizon, no_steps):
    grid = make_uniform_grid(-8.0, 8.0, 65)
    with pytest.raises(ValueError, match="not a multiple of dt"):
        solve(FLOWS["heat"], gaussian_density(grid), 0.001, horizon)


@pytest.mark.parametrize("horizon, dt", [(math.inf, 1e-3), (math.nan, 1e-3),
                                         (1.0, math.inf), (1.0, math.nan)])
def test_step_count_rejects_non_finite_horizon_or_dt(horizon, dt):
    with pytest.raises(ValueError, match="must be finite"):
        step_count(horizon, dt)


@pytest.mark.parametrize("horizon, dt", [(1e8 + 1.0, 1.0), (1e300, 1e-3),
                                         (1e300, 1e-10)])
def test_step_count_rejects_more_than_max_steps(horizon, dt):
    # 1e300 / 1e-10 overflows to inf
    with pytest.raises(ValueError, match="more than 100000000 steps"):
        step_count(horizon, dt)


@pytest.mark.parametrize("dt", [0.0, -0.5])
def test_step_count_rejects_a_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        step_count(1.0, dt)


def test_step_count_accepts_max_steps():
    assert step_count(1e8, 1.0) == MAX_STEPS == 10**8


@pytest.mark.parametrize("tau, steps", [(0.05, 4), (0.02, 50), (0.03, 7),
                                        (0.07, 3), (0.011, 13)])
def test_flow_spec_accepts_compare_pde_horizons(tau, steps):
    # the horizons ``jko --compare-pde`` builds: multiples only up to roundoff
    per_step = max(1, round(tau / min(1e-3, tau / 10.0)))
    dt = tau / per_step
    grid = make_uniform_grid(-8.0, 8.0, 65)
    traj = solve(FLOWS["fokker_planck"], gaussian_density(grid), dt, tau * steps,
                 snapshot_every=per_step)
    assert len(traj.states) == steps + 1
    assert traj.times[-1] == pytest.approx(tau * steps, rel=1e-12)


# ---------------------------------------------------------------- heat flow

def test_heat_flow_matches_gaussian_closed_form(heat_run):
    grid = heat_run.states[0].grid
    final = heat_run.states[-1]
    exact = exact_heat_gaussian(grid, heat_run.times[-1])
    assert integrate(np.abs(final.values - exact), grid) <= 1e-3


def test_heat_flow_mass_and_positivity(heat_run):
    for state in heat_run.states:
        assert abs(state.mass - 1.0) <= 1e-8
        assert state.values.min() > 0.0


def test_heat_flow_entropy_and_lp_monotone(heat_run):
    for value in (FLOWS["heat"].value,
                  lambda s: integrate(s.values**2, s.grid),
                  lambda s: integrate(s.values**3, s.grid)):
        vals = [value(s) for s in heat_run.states]
        assert np.all(np.diff(vals) <= 1e-10 * max(1.0, np.max(np.abs(vals))))


def test_heat_self_convergence_second_order_in_space():
    errs = []
    for n in (129, 257):
        grid = make_uniform_grid(-8.0, 8.0, n)
        traj = solve(FLOWS["heat"], gaussian_density(grid), 1e-5, 0.1,
                     snapshot_every=10**9)
        exact = exact_heat_gaussian(grid, 0.1)
        errs.append(integrate(np.abs(traj.states[-1].values - exact), grid))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_de_bruijn_along_heat_flow(heat_run):
    assert de_bruijn_pde_check(heat_run) <= 1e-3


def test_de_bruijn_on_stationary_uniform_density():
    grid = make_uniform_grid(0.0, 1.0, 129)
    traj = solve(FLOWS["heat"], normalize(np.ones(129), grid), 1e-3, 0.05,
                 snapshot_every=10)
    assert de_bruijn_pde_check(traj) <= 1e-10


def test_de_bruijn_on_bimodal_data():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    vals = np.exp(-2.0 * (grid.nodes - 1.5) ** 2) + np.exp(-(grid.nodes + 1.5) ** 2)
    traj = solve(FLOWS["heat"], normalize(vals, grid), 2e-4, 0.2,
                 snapshot_every=50)
    assert de_bruijn_pde_check(traj) <= 5e-3


def test_de_bruijn_needs_three_snapshots_at_uniform_cadence():
    mu = gaussian_density(make_uniform_grid(-8.0, 8.0, 65))
    with pytest.raises(ValueError, match="at least 3 snapshots"):
        de_bruijn_pde_check(DensityTrajectory([0.0, 0.1], [mu, mu]))
    with pytest.raises(ValueError, match="uniform cadence"):
        de_bruijn_pde_check(DensityTrajectory([0.0, 0.1, 0.3], [mu, mu, mu]))


def test_dirac_like_density_is_narrow():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    d = dirac_like_density(grid)
    assert abs(d.mass - 1.0) <= 1e-12
    # bulk of the mass within a few cells of the origin
    window = np.abs(grid.nodes) <= 10 * grid.spacing
    assert integrate(np.where(window, d.values, 0.0), grid) >= 0.99


def test_de_bruijn_from_dirac_like_data_after_burn_in():
    """Diagnostics from near-Dirac data start at t > 0: drop the early
    snapshots, where the dissipation identity is not yet resolved."""
    from entroflow.grids import DensityTrajectory

    grid = make_uniform_grid(-8.0, 8.0, 1025)
    traj = solve(FLOWS["heat"], dirac_like_density(grid), 1e-4, 0.3,
                 snapshot_every=20)
    skip = int(np.searchsorted(traj.times, 0.05))
    trimmed = DensityTrajectory(traj.times[skip:] - traj.times[skip],
                                traj.states[skip:])
    assert de_bruijn_pde_check(trimmed) <= 1e-2
    # without the burn-in the identity is not resolved yet
    assert de_bruijn_pde_check(traj) > 1.0


# ---------------------------------------------------------------- Fokker-Planck

def test_fp_gaussian_is_stationary():
    grid = make_uniform_grid(-8.0, 8.0, 513)
    gamma = gaussian_density(grid)
    traj = solve(FLOWS["fokker_planck"], gamma, 1e-3, 0.1, snapshot_every=10)
    for state in traj.states:
        assert integrate(np.abs(state.values - gamma.values), grid) <= 1e-8


def test_fp_dissipation_report(fp_run):
    grid = fp_run.states[0].grid
    report = trajectory_report(fp_run, FLOWS["fokker_planck"], gaussian_density(grid))
    assert report.production_bounded
    assert report.value_monotone
    assert report.fitted_production_rate == pytest.approx(2.0, rel=0.05)
    assert report.fitted_value_rate == pytest.approx(2.0, rel=0.05)


def test_fp_report_from_minimizer_trivially_passes():
    grid = make_uniform_grid(-8.0, 8.0, 513)
    gamma = gaussian_density(grid)
    traj = solve(FLOWS["fokker_planck"], gamma, 1e-3, 0.05, snapshot_every=10)
    report = trajectory_report(traj, FLOWS["fokker_planck"], gamma)
    assert np.all(report.productions <= 1e-10)
    assert report.passed


def test_report_csv(tmp_path, fp_run):
    grid = fp_run.states[0].grid
    report = trajectory_report(fp_run, FLOWS["fokker_planck"], gaussian_density(grid))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value,production,bound"
    assert len(lines) == len(report.times) + 1


def test_report_rejects_minimizer_without_unit_mass(fp_run):
    grid = fp_run.states[0].grid
    heavy = GridDensity(grid, 2.0 * gaussian_density(grid).values)
    with pytest.raises(ValueError, match="unit mass"):
        trajectory_report(fp_run, FLOWS["fokker_planck"], heavy)


# ---------------------------------------------------------------- stationary states

def test_flows_is_the_registry_of_functionals():
    assert pde.FLOWS is functionals.FLOWS


def test_stationary_state_of_unconfined_models_is_none():
    grid = make_uniform_grid(-8.0, 8.0, 129)
    assert stationary_state(FLOWS["heat"], grid) is None


def test_stationary_state_of_fokker_planck_is_the_gaussian():
    grid = make_uniform_grid(-8.0, 8.0, 129)
    state = stationary_state(FLOWS["fokker_planck"], grid)
    assert np.array_equal(state.values, gaussian_density(grid).values)


@pytest.mark.parametrize("dim", [3, 5])
def test_stationary_state_of_fast_diffusion_warns_nothing(dim):
    # the grid, not the model, carries the dimension; radius 10 truncates
    # enough tail that stationary_fd warns
    grid = staggered_radial_grid(10.0, 256, dim)
    with pytest.warns(UserWarning, match="truncation radius"):
        expected = stationary_fd(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = stationary_state(FLOWS["fast_diffusion"], grid)
    assert np.array_equal(state.values, expected.values)


# ---------------------------------------------------------------- fast diffusion

def test_stationary_fd_profile(fd_setup):
    grid, stat = fd_setup
    assert abs(stat.mass - 1.0) <= 1e-10
    assert np.all(np.diff(stat.values) < 0.0)  # radially decreasing


def test_stationary_fd_constant_matches_high_resolution_oracle():
    # same node-centered quadrature family, 10x resolution
    def constant_on(num):
        h = 10.0 / (num - 1)
        grid = Grid(h * np.arange(num), h, ambient_dim=3, geometry="radial")
        with pytest.warns(UserWarning):
            stat = stationary_fd(grid)
        return stat.values[0] ** (-1.0 / 3.0)  # C = mu(0)^(-1/n)

    assert abs(constant_on(4097) - constant_on(40961)) <= 1e-8


def test_stationary_state_is_fixed_point(fd_setup):
    grid, stat = fd_setup
    traj = solve(FLOWS["fast_diffusion"], stat, 1e-3, 5e-3)
    for state in traj.states:
        assert integrate(np.abs(state.values - stat.values), grid) <= 1e-6


def test_fd_relaxation_rate_and_conservation(fd_setup):
    grid, stat = fd_setup
    bump = 1.0 + 0.05 * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    mu0 = normalize(stat.values * bump, grid)
    traj = solve(FLOWS["fast_diffusion"], mu0, 2e-3, 2.5, snapshot_every=50)
    for state in traj.states:
        assert abs(state.mass - 1.0) <= 1e-8
        assert state.values.min() > 0.0
    report = trajectory_report(traj, FLOWS["fast_diffusion"], stat)
    assert report.value_monotone
    assert report.fitted_value_rate is not None
    assert report.fitted_value_rate >= 2.0 * (2.0 / 3.0) * 0.95


def test_fd_newton_out_of_iterations_is_solver_error(fd_setup, monkeypatch):
    """A step whose residual is still above the tolerance after
    NEWTON_MAX_ITER iterations fails instead of returning its last iterate."""
    grid, stat = fd_setup
    bump = 1.0 + 0.05 * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    mu0 = normalize(stat.values * bump, grid)
    monkeypatch.setattr(pde, "NEWTON_MAX_ITER", 0)
    with pytest.raises(SolverError, match="fast-diffusion Newton did not converge"):
        solve(FLOWS["fast_diffusion"], mu0, 2e-3, 2e-3)


def _barenblatt_l1(dim, radius, cells, dt, horizon, b0=0.6):
    """L1 distance at ``horizon`` between the scheme run from the width
    family's state at b0 and the exact solution, both normalized on the
    grid; C is that of ``stationary_fd`` on the same grid."""
    grid = staggered_radial_grid(radius, cells, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the dim-3 truncation tail
        c = stationary_fd(grid).values[0] ** (-1.0 / dim) - 0.5 * grid.nodes[0] ** 2
    mu0 = barenblatt_width_state(grid, c, b0, 0.0)
    final = solve(FLOWS["fast_diffusion"], mu0, dt, horizon, snapshot_every=10**6).states[-1]
    exact = barenblatt_width_state(grid, c, b0, horizon)
    return integrate(np.abs(final.values - exact.values), grid)


@pytest.mark.parametrize("runs, expected", [
    ([(cells, 2.5e-4) for cells in (128, 256, 512)], [5.59e-3, 1.40e-3, 3.56e-4]),
    ([(2048, dt) for dt in (0.02, 0.01, 0.005, 0.0025)],
     [3.61e-3, 1.82e-3, 9.21e-4, 4.71e-4]),
], ids=["space", "time"])
def test_fast_diffusion_converges_to_the_barenblatt_width_solution(runs, expected):
    """At dim 10 and radius 10 the truncation is negligible: the L1 error at
    T = 0.5 (b0 = 0.6) falls as O(h^2) in space and O(dt) in time."""
    errors = [_barenblatt_l1(10, 10.0, cells, dt, 0.5) for cells, dt in runs]
    assert errors == pytest.approx(expected, rel=0.2)


@pytest.mark.parametrize("runs, expected", [
    ([(cells, 2.5e-4) for cells in (128, 256, 512)], [3.526e-3, 9.114e-4, 2.622e-4]),
    ([(2048, dt) for dt in (0.02, 0.01, 0.005, 0.0025)],
     [1.595e-3, 8.234e-4, 4.361e-4, 2.430e-4]),
], ids=["space", "time"])
def test_fast_diffusion_in_dimension_5_converges_at_radius_30(runs, expected):
    """At dim 5 a radius of 30 makes the truncation small against the
    scheme's error: the L1 error at T = 0.5 (b0 = 0.6) falls as O(h^2) in
    space and O(dt) in time.  The 8192- and 16384-cell runs wait for the
    Newton stop test of ROADMAP item 1."""
    errors = [_barenblatt_l1(5, 30.0, cells, dt, 0.5) for cells, dt in runs]
    assert errors == pytest.approx(expected, rel=0.2)


@pytest.mark.parametrize("runs, expected", [
    ([(n, 1e-5) for n in (65, 129, 257, 513)], [4.989e-3, 1.233e-3, 3.104e-4, 7.995e-5]),
    ([(4097, dt) for dt in (0.02, 0.01, 0.005, 0.0025)],
     [6.554e-3, 3.295e-3, 1.652e-3, 8.277e-4]),
], ids=["space", "time"])
def test_fokker_planck_converges_to_the_ornstein_uhlenbeck_gaussian(runs, expected):
    """From the Gaussian of mean 1 and deviation 0.5 on [-8, 8], the L1
    error at T = 0.5 against the exact Gaussian falls as O(h^2) in space and
    O(dt) in time."""
    errors = []
    for num_nodes, dt in runs:
        grid = make_uniform_grid(-8.0, 8.0, num_nodes)
        final = solve(FLOWS["fokker_planck"], gaussian_density(grid, 1.0, 0.5), dt, 0.5,
                      snapshot_every=10**6).states[-1]
        exact = ou_gaussian_state(grid, 1.0, 0.5, 0.5)
        errors.append(integrate(np.abs(final.values - exact.values), grid))
    assert errors == pytest.approx(expected, rel=0.2)


def test_fast_diffusion_in_dimension_3_is_bound_by_its_truncation():
    """At dim 3 and radius 10 the grid misses 3e-2 of the continuum mass,
    and the L1 error against the width family is 5.0e-2 at T = 0.5 and
    6.76e-2 at T = 1 whatever the grid and step."""
    errors = [_barenblatt_l1(3, 10.0, cells, dt, 0.5)
              for cells, dt in ((256, 1e-3), (512, 1e-3), (512, 5e-4))]
    assert errors == pytest.approx([5.0e-2] * 3, rel=0.2)
    assert max(errors) - min(errors) <= 0.01 * min(errors)   # flat in h and dt
    assert _barenblatt_l1(3, 10.0, 512, 1e-3, 1.0) == pytest.approx(6.76e-2, rel=0.2)


@pytest.mark.parametrize("dim, radius, cells, rejected", [
    (147, 10.0, 512, False), (149, 10.0, 512, False),   # subnormal first face
    (150, 10.0, 512, True), (190, 10.0, 512, True), (140, 0.514, 5844, True)])
def test_radial_grid_with_a_zero_newton_row_is_rejected(dim, radius, cells, rejected):
    """From dim 140 the innermost cell measure underflows to 0, and where
    the first face area does too, Newton's row 0 would be zero."""
    grid = staggered_radial_grid(radius, cells, dim)
    mu0 = stationary_state(FLOWS["fast_diffusion"], grid)
    if rejected:
        with pytest.raises(ValueError, match=f"at dimension {dim}, radius {radius:g} "
                                             f"and {cells} cells the inner cells"):
            solve(FLOWS["fast_diffusion"], mu0, 1e-4, 1e-4)
    else:
        assert solve(FLOWS["fast_diffusion"], mu0, 1e-3, 2e-3).states[-1].values.min() > 0.0


# ---------------------------------------------------------------- scipy oracles
# The stationary constant comes from scipy's compiled Brent routine, loaded
# by file path, and its tail mass from a numpy Gauss-Legendre rule in place of
# scipy.integrate.quad; scipy's public functions are the oracles here.

STATIONARY_CASES = [(dim, cells, radius) for dim in (3, 5, 10)
                    for cells in (64, 512, 65536) for radius in (5.0, 10.0, 200.0)]


def _scipy_stationary_constant(dim, grid):
    """The normalization constant as scipy.optimize.brentq locates it."""
    from scipy.optimize import brentq

    def excess(c):
        return integrate((c + 0.5 * grid.nodes**2) ** (-dim), grid) - 1.0

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return brentq(excess, 1e-8, hi, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("dim, cells, radius", STATIONARY_CASES)
def test_stationary_fd_constant_is_scipy_brentq_bitwise(dim, cells, radius):
    grid = staggered_radial_grid(radius, cells, dim)
    c = _scipy_stationary_constant(dim, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stat = stationary_fd(grid)
    assert np.array_equal(stat.values, (c + 0.5 * grid.nodes**2) ** (-dim))


@pytest.mark.parametrize("dim, cells, radius", STATIONARY_CASES)
def test_fd_tail_mass_matches_adaptive_quadrature(dim, cells, radius):
    from scipy.integrate import quad

    grid = staggered_radial_grid(radius, cells, dim)
    c = _scipy_stationary_constant(dim, grid)
    omega = sphere_area(dim)
    exact, _ = quad(lambda s: omega * s ** (dim - 1) * (c + 0.5 * s**2) ** (-dim),
                    radius, np.inf, epsabs=0.0, epsrel=1e-13)
    assert _fd_tail_mass(dim, c, radius) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**2 - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -3.0, 5.0),
    (lambda x: x**3 - x - 1.0, 1.0, 2.0),
])
def test_brentq_port_is_scipy_bitwise(f, a, b):
    from scipy.optimize import brentq

    assert _brentq(f, a, b) == brentq(
        f, a, b, xtol=1e-14, rtol=8.9e-16)


def test_brentq_port_failures_are_solver_errors():
    from scipy.optimize import brentq

    with pytest.raises(SolverError, match="not bracketed"):
        _brentq(lambda x: x**2 + 1.0, -1.0, 1.0)
    # a triple root: scipy's brentq runs out of iterations here too
    triple = (lambda x: (x - 0.3) ** 3, -1.0, 2.0)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(*triple, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(SolverError, match="did not converge"):
        _brentq(*triple)


@pytest.mark.parametrize("error", [ValueError("f(a) is out of range"), KeyError("c")])
def test_brentq_passes_errors_of_f_through(error):
    def f(x):
        if x > 0.5:
            raise error
        return x - 0.2

    with pytest.raises(type(error)) as raised:
        _brentq(f, 0.0, 1.0)
    assert raised.value is error


@pytest.mark.parametrize("kind", ["heat", "fokker_planck"])
@pytest.mark.parametrize("n", [129, 1025, 16385])
def test_prefactored_solve_is_one_shot_solve_banded_bitwise(kind, n):
    """The stepped symmetric form agrees with scipy's one-shot solves of the
    same bands to 1e-10 relative at every snapshot, not bit for bit: the
    LDL^T solve of S = T A T^-1 rounds differently from dgtsv's LU of A."""
    from scipy.linalg import solve_banded as scipy_solve_banded
    grid = make_uniform_grid(-8.0, 8.0, n)
    mu0 = gaussian_density(grid, mean=1.5, sigma=0.7)
    traj = solve(FLOWS[kind], mu0, 1e-3, 0.2, snapshot_every=50)
    banded = _linear_step_matrix(FLOWS[kind], grid, 1e-3)
    mu = mu0.values
    assert np.array_equal(traj.states[0].values, mu)
    for k in range(1, 201):
        mu = scipy_solve_banded((1, 1), banded, mu, check_finite=False)
        if k % 50 == 0:
            got = traj.states[k // 50].values
            assert np.max(np.abs(got - mu) / mu) <= 1e-10
    assert len(traj.states) == 5


# A symmetrizable band: lower_i / upper_i = 2, diagonally dominant
SYMMETRIZABLE = np.array([[0.0, -1.0, -1.0], [4.0, 4.0, 4.0], [-2.0, -2.0, 0.0]])


def test_tridiagonal_lu_solves_and_fails_as_solver_error():
    factors = SymmetrizedLDL(SYMMETRIZABLE)
    assert np.allclose(factors.scale[1:] / factors.scale[:-1], np.sqrt(0.5),
                       rtol=1e-15)
    b = np.ones(3)
    y = solve_banded(factors, b * factors.scale)
    x = y / factors.scale
    assert np.allclose(_dense(SYMMETRIZABLE) @ x, b, rtol=1e-15)
    assert np.allclose(x, np.array([19.0, 28.0, 26.0]) / 48.0, rtol=1e-15)
    b = factors.scale.copy()
    assert np.shares_memory(solve_banded(factors, b), b)   # written over b
    indefinite = np.array([[0.0, -3.0, -3.0], [1.0, 1.0, 1.0], [-3.0, -3.0, 0.0]])
    with pytest.raises(SolverError, match="dpttrf"):
        SymmetrizedLDL(indefinite)
    mixed = np.array([[0.0, 1.0, -1.0], [4.0, 4.0, 4.0], [-1.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="no symmetric form"):
        SymmetrizedLDL(mixed)
    singular = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="no symmetric form"):
        SymmetrizedLDL(singular)


def _longdouble_steps(bands, mu, steps):
    """``steps`` solves with the double (1, 1) ``bands``, each from the last,
    by elimination without pivoting in ``np.longdouble``: a reference whose
    own roundoff is far below that of a double solve."""
    upper, diag, lower = ([np.longdouble(v) for v in row]
                          for row in (bands[0, 1:], bands[1], bands[2, :-1]))
    pivots, factors = [diag[0]], [None]
    for i in range(1, len(diag)):
        factors.append(lower[i - 1] / pivots[-1])
        pivots.append(diag[i] - factors[i] * upper[i - 1])
    x, states = [np.longdouble(v) for v in mu], []
    for _ in range(steps):
        for i in range(1, len(x)):
            x[i] -= factors[i] * x[i - 1]
        x[-1] /= pivots[-1]
        for i in range(len(x) - 2, -1, -1):
            x[i] = (x[i] - upper[i] * x[i + 1]) / pivots[i]
        states.append(np.array(x, np.longdouble))
    return states


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("kind", ["heat", "fokker_planck"])
@pytest.mark.parametrize("n, steps", [(129, 200), (1025, 100)])
def test_symmetric_step_error_is_within_twice_the_lu_solve(kind, n, steps):
    """Against an extended-precision solve of the same bands, the worst
    relative error of the stepped symmetric form over every step and node
    is at most twice that of scipy's LU solves (dgtsv; measured: 2.4e-15
    against 1.6e-15 for heat and 6.0e-15 against 6.3e-15 for Fokker-Planck
    at N=129; 6.2e-14 against 4.9e-14 and 1.9e-14 against 1.2e-14 at
    N=1025)."""
    from scipy.linalg import solve_banded as scipy_solve_banded
    grid = make_uniform_grid(-8.0, 8.0, n)
    mu0 = gaussian_density(grid, mean=1.5, sigma=0.7)
    bands = _linear_step_matrix(FLOWS[kind], grid, 1e-3)
    reference = _longdouble_steps(bands, mu0.values, steps)
    stepped = [s.values for s in solve(FLOWS[kind], mu0, 1e-3, steps * 1e-3).states]
    lu, mu = [], mu0.values
    for _ in range(steps):
        mu = scipy_solve_banded((1, 1), bands, mu, check_finite=False)
        lu.append(mu)

    def worst(states):
        return max(float(np.max(np.abs(x - r) / r)) for x, r in zip(states, reference,
                                                                    strict=True))

    assert worst(stepped[1:]) <= 2.0 * worst(lu)


def test_wide_fokker_planck_domain_is_rejected_before_the_first_snapshot():
    # the symmetrizing scale sqrt(w) e^(V/2) spans e^(60^2/4) = e^900
    mu0 = normalize(np.ones(1025), make_uniform_grid(-60.0, 60.0, 1025))
    emitted = []
    with pytest.raises(ValueError, match=r"domain \[-60, 60\] is too wide"):
        solve(FLOWS["fokker_planck"], mu0, 1e-3, 1.0,
              emit=lambda t, state: emitted.append(t))
    assert emitted == []
    # heat's scale sqrt(w) spans only the half end weights
    assert len(solve(FLOWS["heat"], mu0, 1e-3, 2e-3).states) == 3


# Fitted production and value rates of `simulate --flow fokker_planck --init
# uniform --T 1 --diagnose` on [-L, L] (N=1025, dt=1e-3), stepped by the
# general LU solve (LAPACK dgttrs) of the same bands
WIDE_DOMAIN_RATES = {30: (2.0168730873910672, 2.0666697376169734),
                     45: (2.0038563719811666, 2.0319966144013146)}


@pytest.mark.parametrize("half_width", sorted(WIDE_DOMAIN_RATES))
def test_wide_domain_rates_match_the_general_solve(half_width, tmp_path):
    from entroflow.cli import main
    argv = ["simulate", "--flow", "fokker_planck", "--init", "uniform",
            "--domain", str(-half_width), str(half_width), "--T", "1",
            "--diagnose", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    got = summary["fitted_production_rate"], summary["fitted_value_rate"]
    assert np.allclose(got, WIDE_DOMAIN_RATES[half_width], rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "the interior diagonal 1 + 2 dt / h^2 rounds alike on every row, so heat "
    "mass drifts linearly, 2.3e-11 per step here (ROADMAP item 1)"))
def test_heat_mass_holds_over_many_large_steps():
    grid = make_uniform_grid(-8.0, 8.0, 16385)
    traj = solve(FLOWS["heat"], gaussian_density(grid), 0.3, 150.0,
                 snapshot_every=100)
    assert max(abs(state.mass - 1.0) for state in traj.states) <= 1e-10


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "one backward-Euler step this long moves the mass beyond solve's 1e-8: "
    "to 0.9999992658767558 for heat and 1.0000000610019684 for Fokker-Planck "
    "(ROADMAP item 1)"))
@pytest.mark.parametrize("kind, dt", [("heat", 1e8), ("fokker_planck", 1e6)])
def test_mass_holds_over_one_large_step(kind, dt):
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    traj = solve(FLOWS[kind], gaussian_density(grid, 2.0, 1.0), dt, dt, snapshot_every=1)
    assert abs(traj.states[-1].mass - 1.0) <= 1e-10


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "beyond |x| ~ 38.6 the Gibbs density e^(-x^2/2) underflows, and solve "
    "requires mu > 0 at every node: positivity lost at step 3450 here "
    "(ROADMAP item 1)"))
def test_fokker_planck_runs_long_on_a_wide_domain():
    mu0 = normalize(np.ones(1025), make_uniform_grid(-40.0, 40.0, 1025))
    traj = solve(FLOWS["fokker_planck"], mu0, 1e-3, 5.0, snapshot_every=500)
    assert max(abs(state.mass - 1.0) for state in traj.states) <= 1e-8


def test_bernoulli_overflow_is_silent():
    # e^z - 1 overflows to inf above z ~ 709, where B = z / inf = 0 is exact
    z = np.array([800.0, -800.0, 1e-12, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _bernoulli(z)
    assert np.array_equal(got, [0.0, 800.0, 1.0 - 0.5 * 1e-12, 0.5 / np.expm1(0.5)])


def test_coarse_wide_domain_prints_only_the_config_error(tmp_path):
    # faces of dV ~ 875 on [-60, 60] with 8 nodes
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "simulate", "--flow", "fokker_planck",
         "--init", "uniform", "--domain", "-60", "60", "--N", "8", "--out", str(out)],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: domain [-60, 60] is too wide")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def _spd_bands(n, seed):
    """B^T B for a random upper bidiagonal B, a symmetric positive-definite
    band array in the upper form of scipy's ``solveh_banded``, and a
    right-hand side."""
    rng = np.random.default_rng(seed)
    main, upper = rng.uniform(0.5, 1.5, n), rng.uniform(-1.5, 1.5, n - 1)
    ab = np.zeros((2, n))
    ab[0, 1:] = main[:-1] * upper
    ab[1] = main**2
    ab[1, 1:] += upper**2
    return ab, rng.standard_normal(n)


@pytest.mark.parametrize("n", [3, 4, 17, 1025, 65537])
def test_solve_banded_is_scipy_solve_banded_bitwise(n):
    """Bitwise scipy's banded solve for symmetric bands, ``solveh_banded``,
    which runs ``dptsv`` on a (2, n) band."""
    from scipy.linalg import solveh_banded
    from scipy.linalg.lapack import dptsv
    ab, b = _spd_bands(n, n)
    off, diag = ab[0, 1:], ab[1]
    # not diagonally dominant
    assert np.any(np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off]) > diag)
    *_, expected, info = dptsv(diag, off, b)
    assert info == 0
    assert np.array_equal(solveh_banded(ab, b), expected)
    rhs = b.copy()
    x = solve_banded(ab.copy(), rhs)
    assert np.array_equal(x, expected)
    assert np.shares_memory(x, rhs)   # written over b


# A symmetric band that is not positive definite: its second pivot is
# 1 - 2^2 / 1 = -3, and LAPACK reports the row
INDEFINITE = np.array([[0.0, 2.0, 0.5], [1.0, 1.0, 1.0]])


def test_solve_banded_indefinite_band_is_solver_error():
    with pytest.raises(SolverError, match="dptsv failed with info=2"):
        solve_banded(INDEFINITE.copy(), np.ones(3))


def test_solve_banded_singular_band_is_solver_error():
    singular = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])   # a zero row 1
    with pytest.raises(SolverError, match="dptsv failed with info=1"):
        solve_banded(singular, np.ones(3))


@pytest.mark.parametrize("broken", ["layout", "file"])
@pytest.mark.parametrize("package, name", [("linalg", "_flapack"),
                                           ("optimize", "_zeros")])
def test_extension_falls_back_to_scipy(package, name, broken, monkeypatch, tmp_path):
    from scipy.linalg import solveh_banded
    from scipy.optimize import brentq
    corrupt = tmp_path / (name + EXTENSION_SUFFIXES[0])
    corrupt.write_bytes(b"not a shared library")
    find_spec = importlib.machinery.PathFinder.find_spec

    def lookup(fullname, path=None, target=None):
        if fullname != f"entroflow.{name}":
            return find_spec(fullname, path, target)
        if broken == "layout":   # no extension where scipy used to keep it
            return None
        # an extension file that does not load
        return importlib.util.spec_from_file_location(fullname, corrupt)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", staticmethod(lookup))
    pde._extension.cache_clear()
    try:
        assert pde._extension(package, name) is importlib.import_module(
            f"scipy.{package}.{name}")
        ab, b = _spd_bands(257, 5)
        expected = solveh_banded(ab, b)
        assert np.array_equal(solve_banded(ab.copy(), b.copy()), expected)
        factors = SymmetrizedLDL(SYMMETRIZABLE)
        x = solve_banded(factors, factors.scale.copy()) / factors.scale
        assert np.allclose(x, np.array([19.0, 28.0, 26.0]) / 48.0, rtol=1e-15)
        with pytest.raises(SolverError, match="dpttrf"):
            SymmetrizedLDL(-SYMMETRIZABLE)
        with pytest.raises(SolverError, match="dptsv failed with info=2"):
            solve_banded(INDEFINITE.copy(), np.ones(3))
        assert _brentq(math.cos, 1.0, 2.0) == brentq(
            math.cos, 1.0, 2.0, xtol=1e-14, rtol=8.9e-16)
        with pytest.raises(SolverError, match="not bracketed"):
            _brentq(lambda x: x**2 + 1.0, -1.0, 1.0)
    finally:
        pde._extension.cache_clear()


def _fresh_env():
    """The environment of a fresh interpreter that imports this ``entroflow``."""
    src = str(Path(pde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_fresh(probe):
    proc = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_importing_the_cli_builds_no_csv_kernel_table():
    # the '%.17g' kernel's tables are built at the first float CSV, not at import
    _run_fresh("import entroflow.cli\nfrom entroflow import grids\n"
               "assert grids._g17_tables.cache_info().currsize == 0\nprint('ok')")


# Run in a fresh process: the library must solve before scipy.linalg is
# first imported.
COEXISTENCE_PROBE = """
import sys
import numpy as np
from entroflow.pde import SymmetrizedLDL, solve_banded
rng = np.random.default_rng(3)
ab = np.zeros((2, 1025))   # symmetric positive definite, off-diagonal in ab[0, 1:]
ab[0, 1:] = rng.uniform(-1.0, 1.0, 1024)
ab[1] = 2.5
b = rng.standard_normal(1025)
x = solve_banded(ab.copy(), b.copy())
sym = -np.abs(np.vstack([ab[0], ab[0], np.roll(ab[0], -1)]))
sym[1] = 2.5   # a symmetrizable, diagonally dominant band
factors = SymmetrizedLDL(sym)
y = solve_banded(factors, b * factors.scale) / factors.scale
assert "entroflow._flapack" in sys.modules
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
import scipy.linalg
assert scipy.linalg._flapack is not sys.modules["entroflow._flapack"]
*_, z, info = scipy.linalg._flapack.dptsv(ab[1], ab[0, 1:], b)
assert info == 0
*_, w, info = scipy.linalg.lapack.dptsv(ab[1], ab[0, 1:], b)
assert info == 0
v = scipy.linalg.solveh_banded(ab, b)
for other in (z, w, v):
    assert np.array_equal(x, other)
u = scipy.linalg.solve_banded((1, 1), sym, b)
assert np.max(np.abs(y - u)) <= 1e-13 * np.max(np.abs(u))
print("ok")
"""


def test_scipy_linalg_imported_after_a_library_solve_is_complete():
    _run_fresh(COEXISTENCE_PROBE)


# The same for Brent's routine: the stationary state comes first, then
# scipy.optimize is imported.
BRENT_COEXISTENCE_PROBE = """
import sys
import warnings
import numpy as np
from entroflow.grids import integrate, staggered_radial_grid
from entroflow.pde import stationary_fd
grid = staggered_radial_grid(10.0, 512, 3)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    stat = stationary_fd(grid)
assert "entroflow._zeros" in sys.modules
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
import scipy.optimize
assert scipy.optimize._zeros is not sys.modules["entroflow._zeros"]
r = grid.nodes
def excess(c):
    return integrate((c + 0.5 * r**2) ** (-3), grid) - 1.0
hi = 1.0
while excess(hi) > 0.0:
    hi *= 2.0
c = scipy.optimize.brentq(excess, 1e-8, hi, xtol=1e-14, rtol=8.9e-16)
assert np.array_equal(stat.values, (c + 0.5 * r**2) ** (-3))
print("ok")
"""


def test_scipy_optimize_imported_after_a_stationary_state_is_complete():
    _run_fresh(BRENT_COEXISTENCE_PROBE)


def _dense(bands):
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


def test_flux_bands_is_the_divergence_of_face_fluxes():
    rng = np.random.default_rng(11)
    n = 9
    u, scale = rng.uniform(0.5, 2.0, (2, n))
    left, right = rng.uniform(0.1, 1.0, (2, n - 1))
    flux = np.zeros(n + 1)          # J at the n + 1 faces, zero at both ends
    flux[1:-1] = left * u[:-1] - right * u[1:]
    expected = u + scale * (flux[1:] - flux[:-1])
    bands = flux_bands(left, right, scale)
    assert np.allclose(_dense(bands) @ u, expected, rtol=1e-14, atol=0.0)
    factors = SymmetrizedLDL(bands)   # both off-diagonals are negative
    y = solve_banded(factors, expected * factors.scale) / factors.scale
    assert np.allclose(y, u, rtol=1e-12)


def test_flux_bands_symmetric_for_equal_face_weights():
    cross = np.random.default_rng(12).uniform(0.1, 3.0, 15)
    dense = _dense(flux_bands(cross, cross, np.ones(16)))
    assert np.array_equal(dense, dense.T)


def test_heat_step_matrix_is_self_adjoint_in_the_cell_measure():
    grid = make_uniform_grid(-8.0, 8.0, 16)
    weighted = grid.quad_weights[:, None] * _dense(
        _linear_step_matrix(FLOWS["heat"], grid, 0.3))
    assert np.allclose(weighted, weighted.T, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("kind", ["heat", "fokker_planck"])
def test_linear_step_matrix_equals_hand_assembled_bands_bitwise(kind):
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    dt = 1e-3
    x, h, w = grid.nodes, grid.spacing, grid.quad_weights
    dv = 0.5 * (x[1:] ** 2 - x[:-1] ** 2) if kind == "fokker_planck" \
        else np.zeros(x.size - 1)
    bplus, bminus = _bernoulli(dv), _bernoulli(-dv)
    diag = np.ones(x.size)
    diag[:-1] += dt / (w[:-1] * h) * bplus
    diag[1:] += dt / (w[1:] * h) * bminus
    upper = np.zeros(x.size)
    upper[1:] = -dt / (w[:-1] * h) * bminus
    lower = np.zeros(x.size)
    lower[:-1] = -dt / (w[1:] * h) * bplus
    assert np.array_equal(_linear_step_matrix(FLOWS[kind], grid, dt),
                          np.vstack([upper, diag, lower]))


@pytest.mark.parametrize("kind", ["heat", "fokker_planck"])
def test_linear_step_conserves_weighted_mass(kind):
    """sum_i w_i ((I + dt M) mu)_i = sum_i w_i mu_i: the flux part of every
    column has zero w-weighted sum."""
    grid = make_uniform_grid(-8.0, 8.0, 257)
    flux_part = (_dense(_linear_step_matrix(FLOWS[kind], grid, 1e-2))
                 - np.eye(grid.num_nodes))
    column_sums = grid.quad_weights @ flux_part
    scale = np.max(np.abs(grid.quad_weights[:, None] * flux_part))
    assert np.max(np.abs(column_sums)) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["heat", "fast_diffusion"])
def test_emitted_snapshots_equal_the_collected_ones_bitwise(kind):
    if kind == "heat":
        mu0 = gaussian_density(make_uniform_grid(-8.0, 8.0, 257), 0.5, 0.8)
    else:
        grid = staggered_radial_grid(10.0, 128, 3)
        bump = 1.0 + 0.05 * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
        mu0 = normalize(stationary_state(FLOWS[kind], grid).values * bump, grid)
    traj = solve(FLOWS[kind], mu0, 1e-2, 0.2, snapshot_every=3)
    emitted = []
    assert solve(FLOWS[kind], mu0, 1e-2, 0.2, snapshot_every=3,
                 emit=lambda t, state: emitted.append((t, state))) is None
    assert [t for t, _ in emitted] == list(traj.times)
    for (_, state), kept in zip(emitted, traj.states, strict=True):
        assert state.grid is kept.grid
        assert np.array_equal(state.values, kept.values)
