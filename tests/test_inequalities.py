import math

import numpy as np
import pytest

from entroflow.banks import eep_fd_bank, lsi_bank, run_inequality_bank
from entroflow.grids import (
    gaussian_density,
    integrate,
    make_uniform_grid,
    normalize,
    staggered_radial_grid,
)
from entroflow.inequalities import (
    HypothesisViolation,
    ZugmeyerProblem,
    aubin_talenti_extremal,
    check_hypotheses,
    eep_check_fd,
    eep_check_fp,
    lsi_check,
    scale_tol,
    sobolev_check,
    sobolev_optimal_constant,
    xlogx,
    zugmeyer_check,
)
from entroflow.pde import stationary_fd


@pytest.fixture(scope="module")
def grid():
    return make_uniform_grid(-8.0, 8.0, 2049)


@pytest.fixture(scope="module")
def radial_setup():
    g = staggered_radial_grid(10.0, 512, 3)
    with pytest.warns(UserWarning):
        stat = stationary_fd(g)
    return g, stat


# ---------------------------------------------------------------- log-Sobolev

def test_lsi_constant_function(grid):
    res = lsi_check(np.ones_like(grid.nodes), grid)
    assert abs(res.lhs) <= 1e-14
    assert abs(res.rhs) <= 1e-14


def test_lsi_exponential_saturates(grid):
    a = 0.7
    res = lsi_check(np.exp(a * grid.nodes), grid)
    exact = 0.5 * a**2 * math.exp(0.5 * a**2)
    assert res.lhs == pytest.approx(exact, abs=1e-4)
    assert res.rhs == pytest.approx(exact, abs=1e-4)
    assert 0.999 <= res.ratio <= 1.0


def test_lsi_strict_on_sine_perturbation(grid):
    res = lsi_check(1.0 + 0.5 * np.sin(grid.nodes), grid)
    assert res.lhs <= res.rhs
    assert res.ratio < 1.0


def test_lsi_rejects_nonpositive(grid):
    with pytest.raises(ValueError):
        lsi_check(np.sin(grid.nodes), grid)


def test_lsi_bank_no_violations(grid):
    for case_id, f in lsi_bank(grid, 40, seed=7):
        res = lsi_check(f, grid)
        assert res.lhs <= res.rhs + scale_tol(res.rhs), case_id


def test_lsi_sensitivity(grid):
    """A 10% deflated rhs must be caught on the equality case."""
    res = lsi_check(np.exp(0.7 * grid.nodes), grid)
    assert res.lhs > 0.9 * res.rhs + scale_tol(res.rhs)


# ---------------------------------------------------------------- Sobolev

@pytest.fixture(scope="module")
def sobolev_grid():
    return staggered_radial_grid(150.0, 12000, 3)


def test_sobolev_extremal_saturates(sobolev_grid):
    res = sobolev_check(aubin_talenti_extremal(sobolev_grid), sobolev_grid)
    assert res.ratio_to_optimal == pytest.approx(1.0, abs=1e-2)


def test_sobolev_scale_invariance(sobolev_grid):
    base = sobolev_check(aubin_talenti_extremal(sobolev_grid), sobolev_grid)
    scaled = sobolev_check(
        (1.0 + (1.7 * sobolev_grid.nodes) ** 2) ** (-0.5), sobolev_grid)
    assert scaled.ratio_to_optimal == pytest.approx(base.ratio_to_optimal,
                                                    abs=1e-2)


def test_sobolev_gaussian_bump_below_optimal(sobolev_grid):
    res = sobolev_check(np.exp(-0.5 * sobolev_grid.nodes**2), sobolev_grid)
    assert res.ratio_to_optimal < 1.0


def test_sobolev_rejects_boundary_mass(sobolev_grid):
    with pytest.raises(ValueError):
        sobolev_check(np.ones_like(sobolev_grid.nodes), sobolev_grid)


def test_sobolev_constant_cached_and_positive():
    c1 = sobolev_optimal_constant(3)
    c2 = sobolev_optimal_constant(3)
    assert c1 == c2 > 0.0


def test_sobolev_sensitivity(sobolev_grid):
    """A 10% deflated constant must be caught on the saturation case."""
    res = sobolev_check(aubin_talenti_extremal(sobolev_grid), sobolev_grid)
    assert res.ratio_to_optimal / 0.9 > 1.0 + 1e-6


# --------------------------------------------------------------- EEP checks

def test_eep_fp_at_gaussian(grid):
    lhs, rhs = eep_check_fp(gaussian_density(grid))
    assert abs(lhs) <= 1e-10
    assert abs(rhs) <= 1e-10


def test_eep_fp_translated_gaussian_equality(grid):
    for m in (0.5, 1.0, 2.0):
        lhs, rhs = eep_check_fp(gaussian_density(grid, mean=m))
        assert lhs == pytest.approx(0.5 * m**2, abs=1e-6)
        assert rhs == pytest.approx(0.5 * m**2, abs=1e-6)


def test_eep_fp_mixture_strict(grid):
    mu = normalize(np.exp(-0.5 * (grid.nodes - 1.0) ** 2)
                   + np.exp(-0.5 * (grid.nodes + 1.0) ** 2), grid)
    lhs, rhs = eep_check_fp(mu)
    assert 0.0 < lhs < rhs


def test_eep_fp_sensitivity(grid):
    lhs, rhs = eep_check_fp(gaussian_density(grid, mean=1.0))
    assert lhs > 0.9 * rhs + scale_tol(rhs)


def test_eep_fd_at_stationary(radial_setup):
    g, stat = radial_setup
    lhs, rhs = eep_check_fd(stat, stationary=stat)
    assert abs(lhs) <= 1e-10
    assert rhs <= 1e-10


def test_eep_fd_dilated_and_bumped(radial_setup):
    g, stat = radial_setup
    for case_id, mu in eep_fd_bank(g, 12, seed=3, stationary=stat):
        lhs, rhs = eep_check_fd(mu, stationary=stat)
        assert lhs <= rhs + scale_tol(rhs), case_id
        assert lhs >= -scale_tol(rhs), case_id


# ---------------------------------------------------------------- Zugmeyer

def xlogx_problem(c=1.0, num=257):
    g = make_uniform_grid(0.0, 1.0, num)
    h, psi = xlogx()
    v = np.exp(-0.5 * c * (g.nodes - 0.5) ** 2)
    v = v / integrate(v, g)
    return ZugmeyerProblem(h, psi, 1, g, v, c), g


def test_zugmeyer_equal_functions():
    problem, g = xlogx_problem()
    lhs, rhs, report = zugmeyer_check(problem, problem.v_values.copy())
    assert report.ok
    assert abs(lhs) <= 1e-12
    assert abs(rhs) <= 1e-12


def test_zugmeyer_perturbation_holds():
    problem, g = xlogx_problem()
    u = problem.v_values * (1.0 + 0.1 * np.sin(2.0 * np.pi * g.nodes))
    u = u * (integrate(problem.v_values, g) / integrate(u, g))
    lhs, rhs, _ = zugmeyer_check(problem, u)
    assert 0.0 <= lhs <= rhs + scale_tol(rhs)


def test_zugmeyer_localized_perturbation_margin():
    problem, g = xlogx_problem(c=2.0)
    bump = np.exp(-0.5 * ((g.nodes - 0.3) / 0.05) ** 2)
    u = problem.v_values * (1.0 + 0.25 * bump)
    u = u * (integrate(problem.v_values, g) / integrate(u, g))
    lhs, rhs, _ = zugmeyer_check(problem, u)
    assert lhs <= rhs
    assert rhs - lhs > 0.0


def test_zugmeyer_refuses_inflated_constant():
    """C larger than the actual convexity of -log v must be refused."""
    g = make_uniform_grid(0.0, 1.0, 257)
    h, psi = xlogx()
    v = np.exp(-0.5 * 1.0 * (g.nodes - 0.5) ** 2)
    v = v / integrate(v, g)
    problem = ZugmeyerProblem(h, psi, 1, g, v, c=2.0)
    report = check_hypotheses(problem)
    assert not report.ok
    with pytest.raises(HypothesisViolation) as err:
        zugmeyer_check(problem, v.copy())
    assert "VIOLATED" in str(err.value)


def test_zugmeyer_mass_mismatch():
    problem, g = xlogx_problem()
    with pytest.raises(ValueError):
        zugmeyer_check(problem, 1.1 * problem.v_values)


def test_zugmeyer_radial_hypotheses():
    g = staggered_radial_grid(1.0, 128, 3)
    h, psi = xlogx()
    v = np.exp(-0.5 * 1.5 * g.nodes**2)
    v = v / integrate(v, g)
    problem = ZugmeyerProblem(h, psi, 3, g, v, c=1.5)
    assert check_hypotheses(problem).ok
    u = v * (1.0 + 0.1 * np.exp(-0.5 * ((g.nodes - 0.5) / 0.1) ** 2))
    u = u * (integrate(v, g) / integrate(u, g))
    lhs, rhs, _ = zugmeyer_check(problem, u)
    assert lhs <= rhs + scale_tol(rhs)


# ---------------------------------------------------------------- bank runner

def test_run_bank_rows_and_order():
    rows = run_inequality_bank("lsi", seed=7, count=25)
    assert len(rows) == 25
    assert [r.case_id for r in rows] == sorted(r.case_id for r in rows)
    assert all(r.passed for r in rows)


def test_run_bank_unknown_name():
    with pytest.raises(ValueError):
        run_inequality_bank("nope")


def test_run_zugmeyer_bank_small():
    rows = run_inequality_bank("zugmeyer", seed=11, count=20)
    assert all(r.passed for r in rows)


def test_run_eep_fd_bank_small():
    rows = run_inequality_bank("eep_fd", seed=5, count=16)
    assert all(r.passed for r in rows)


def test_run_eep_fp_full_bank():
    rows = run_inequality_bank("eep_fp", seed=7)
    assert len(rows) == 200
    assert all(r.passed for r in rows)
