import math
import warnings

import numpy as np
import pytest

from entroflow.functionals import (
    boltzmann_entropy,
    fd_free_energy,
    fp_free_energy,
    hessian_identity_check,
    lp_norm,
)
from entroflow.grids import (
    gaussian_density,
    gradient_fd,
    integrate,
    make_uniform_grid,
    normalize,
    staggered_radial_grid,
)
from entroflow.pde import stationary_fd


@pytest.fixture(scope="module")
def grid():
    return make_uniform_grid(-8.0, 8.0, 2049)


@pytest.fixture(scope="module")
def gauss(grid):
    return gaussian_density(grid)


@pytest.fixture(scope="module")
def radial_setup():
    rg = staggered_radial_grid(10.0, 512, 3)
    with pytest.warns(UserWarning):  # truncated tail reported
        stat = stationary_fd(rg)
    return rg, stat


# ---------------------------------------------------------------- values

def test_entropy_of_uniform_on_unit_interval():
    g = make_uniform_grid(0.0, 1.0, 129)
    d = normalize(np.ones(129), g)
    assert boltzmann_entropy().value(d) == pytest.approx(0.0, abs=1e-13)


def test_entropy_of_uniform_on_double_interval():
    g = make_uniform_grid(0.0, 2.0, 129)
    d = normalize(np.ones(129), g)
    # closed form: int (1/2) log(1/2) over [0, 2]
    assert boltzmann_entropy().value(d) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_fp_value_at_gaussian(grid, gauss):
    # Ent(gamma) = -log(2 pi)/2 - 1/2, second moment adds 1/2
    expected = -0.5 * math.log(2.0 * math.pi)
    assert fp_free_energy().value(gauss) == pytest.approx(expected, abs=1e-8)


def test_lp_value():
    g = make_uniform_grid(0.0, 1.0, 129)
    d = normalize(np.ones(129), g)
    assert lp_norm(2.0).value(d) == pytest.approx(1.0, abs=1e-12)


def test_fd_value_rejects_vanishing_density(radial_setup):
    rg, stat = radial_setup
    vals = stat.values.copy()
    vals[-1] = 0.0
    from entroflow.grids import GridDensity
    zeroed = GridDensity(rg, vals)
    with pytest.raises(ValueError):
        fd_free_energy(3).value(zeroed)


# ---------------------------------------------------------------- gradients

def test_entropy_gradient_at_gaussian_is_minus_x(grid, gauss):
    field = boltzmann_entropy().otto_gradient(gauss)
    assert np.max(np.abs(field.values + grid.nodes)) <= 1e-9


def test_fp_gradient_vanishes_at_gaussian(gauss):
    field = fp_free_energy().otto_gradient(gauss)
    assert np.max(np.abs(field.values)) <= 1e-9


def test_fd_gradient_vanishes_at_stationary_state(radial_setup):
    rg, stat = radial_setup
    field = fd_free_energy(3).otto_gradient(stat)
    assert np.max(np.abs(field.values)) <= 1e-9


def test_lp_gradient_not_implemented(gauss):
    with pytest.raises(ValueError):
        lp_norm(2.0).otto_gradient(gauss)


# ---------------------------------------------------------------- production

def test_fisher_information_of_standard_gaussian(gauss):
    assert boltzmann_entropy().production(gauss) == pytest.approx(1.0, abs=1e-8)


def test_fisher_information_scales_with_variance():
    # wide domain so the +-6 sigma truncation stays below the tolerance
    wide = make_uniform_grid(-16.0, 16.0, 4097)
    for sigma in (0.7, 1.3, 2.0):
        d = gaussian_density(wide, sigma=sigma)
        assert boltzmann_entropy().production(d) == pytest.approx(1.0 / sigma**2,
                                                                  rel=1e-6)


def test_production_zero_at_minimizer(gauss):
    assert fp_free_energy().production(gauss) <= 1e-12


def test_fd_production_zero_at_stationary_state(radial_setup):
    rg, stat = radial_setup
    assert fd_free_energy(3).production(stat) <= 1e-12


# ---------------------------------------------------------------- hessians

def test_entropy_hessian_on_affine_potential(gauss):
    phi = gauss.grid.nodes.copy()
    assert boltzmann_entropy().otto_hessian_quadform(gauss, phi) == pytest.approx(
        0.0, abs=1e-12)


def test_fp_hessian_on_affine_potential_equals_field_norm(grid):
    mixture = normalize(
        np.exp(-0.5 * (grid.nodes - 1.0) ** 2)
        + 0.5 * np.exp(-(grid.nodes + 2.0) ** 2), grid)
    value = fp_free_energy().otto_hessian_quadform(mixture, grid.nodes)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_fd_hessian_quadratic_potential_hits_lower_bound(radial_setup):
    rg, stat = radial_setup
    phi = 0.5 * rg.nodes**2
    value = fd_free_energy(3).otto_hessian_quadform(stat, phi)
    grad_norm = integrate(rg.nodes**2 * stat.values, rg)
    assert value == pytest.approx((2.0 / 3.0) * grad_norm, rel=1e-12)


def standard_phi_bank(grid, seed=2061):
    """Fixed, seeded potentials for Hessian-bound sweeps.

    Affine, quadratic, a few sin/cos frequencies, and two compactly
    supported Gaussian bumps drawn from ``default_rng(seed)`` (PCG64).
    """
    x = grid.nodes
    rng = np.random.default_rng(seed)
    bank = [
        ("affine", 0.8 * x),
        ("quadratic", 0.5 * x**2),
        ("sin_half", np.sin(0.5 * x)),
        ("sin_1", np.sin(x)),
        ("sin_2", np.sin(2.0 * x)),
        ("cos_3_halves", np.cos(1.5 * x)),
    ]
    lo, hi = x[0], x[-1]
    span = hi - lo
    for k in range(2):
        center = lo + span * rng.uniform(0.3, 0.7)
        width = span * rng.uniform(0.04, 0.1)
        amp = rng.uniform(0.5, 1.5)
        bank.append((f"bump_{k}", amp * np.exp(-0.5 * ((x - center) / width) ** 2)))
    return bank


def test_fp_hessian_bound_over_phi_bank(grid, gauss):
    for name, phi in standard_phi_bank(grid):
        quad = fp_free_energy().otto_hessian_quadform(gauss, phi)
        lower = integrate(gradient_fd(phi, grid) ** 2 * gauss.values, grid)
        assert quad >= lower - 1e-10 * max(1.0, lower), name


def test_fd_hessian_bound_over_phi_bank(radial_setup):
    rg, stat = radial_setup
    for name, phi in standard_phi_bank(rg):
        quad = fd_free_energy(3).otto_hessian_quadform(stat, phi)
        lower = (2.0 / 3.0) * integrate(gradient_fd(phi, rg) ** 2 * stat.values, rg)
        assert quad >= lower - 1e-10 * max(1.0, lower), name


def _bump(r):
    e = np.exp(-0.5 * (r - 1.0) ** 2)
    return e, -(r - 1.0) * e, ((r - 1.0) ** 2 - 1.0) * e


def _damped_sine(r):
    e = np.exp(-r**2 / 8.0)
    d2 = (np.sin(r) * (r**2 / 16.0 - 1.25) - 0.5 * r * np.cos(r)) * e
    return np.sin(r) * e, (np.cos(r) - 0.25 * r * np.sin(r)) * e, d2


@pytest.mark.parametrize("potential", [_bump, _damped_sine])
@pytest.mark.parametrize("n", [3, 5])
def test_fd_hessian_is_second_variation_along_push_forward(n, potential):
    # non-quadratic Phi, where ||Hess Phi||^2 - (Lap Phi)^2 / n does not vanish
    grid = staggered_radial_grid(10.0, 4096, n)
    r = grid.nodes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncated tail
        stat = stationary_fd(grid)
    mu = normalize(stat.values * (1.0 + 0.8 * np.exp(-0.5 * (r - 1.5) ** 2)), grid)
    phi, d1, d2 = potential(r)
    s = (n - 1.0) / n

    def pushed_value(eps):
        # F((id + eps grad Phi)# mu) in Lagrangian form
        t = r + eps * d1
        jac = (1.0 + eps * d2) * (t / r) ** (n - 1)
        integrand = -(mu.values ** (1.0 - 1.0 / n)) * jac ** (1.0 / n)
        return integrate(integrand + s * 0.5 * t**2 * mu.values, grid)

    eps = 1e-3
    second = (pushed_value(eps) - 2.0 * pushed_value(0.0) + pushed_value(-eps)) / eps**2
    quad = fd_free_energy(n).otto_hessian_quadform(mu, phi)
    assert quad == pytest.approx(second, rel=1e-3)


def test_hessian_identity_on_quadratic(gauss):
    phi = gauss.grid.nodes**2
    lhs, rhs = hessian_identity_check(gauss, phi)
    assert lhs == pytest.approx(4.0 * gauss.mass, abs=1e-9)
    assert rhs == pytest.approx(4.0 * gauss.mass, abs=1e-9)


def test_hessian_identity_on_affine(gauss):
    lhs, rhs = hessian_identity_check(gauss, 1.7 * gauss.grid.nodes)
    assert abs(lhs) <= 1e-12
    assert abs(rhs) <= 1e-12


def test_hessian_identity_on_sine(gauss):
    lhs, rhs = hessian_identity_check(gauss, np.sin(gauss.grid.nodes))
    assert abs(lhs - rhs) <= 1e-3
    assert rhs > 0.1  # non-vacuous


# ---------------------------------------------------------------- invariants

def test_gaussian_minimizes_entropy_at_fixed_variance(grid):
    ent = boltzmann_entropy()
    x = grid.nodes
    base = np.exp(-0.5 * x**2)
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = rng.uniform(0.5, 3.0)
        eps = rng.uniform(-0.4, 0.4)
        mu = normalize(base * (1.0 + eps * np.sin(k * x)) ** 2, grid)
        mean = integrate(x * mu.values, grid)
        var = integrate(x**2 * mu.values, grid) - mean**2
        gaussian_floor = -0.5 * math.log(2.0 * math.pi * math.e * var)
        assert ent.value(mu) >= gaussian_floor - 1e-9
