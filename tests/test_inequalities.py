import math

import numpy as np
import pytest

from entroflow.banks import (
    BANK_NAMES,
    eep_fd_bank,
    eep_fp_bank,
    lsi_bank,
    run_inequality_bank,
    sobolev_bank,
    zugmeyer_bank,
)
from entroflow import inequalities
from entroflow.functionals import FLOWS
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
from entroflow.pde import stationary_fd, stationary_state
from oracles import sobolev_ratio_fine_grid


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
    lhs, rhs = lsi_check(np.ones_like(grid.nodes), grid)
    assert abs(lhs) <= 1e-14
    assert abs(rhs) <= 1e-14


def test_lsi_exponential_saturates(grid):
    a = 0.7
    lhs, rhs = lsi_check(np.exp(a * grid.nodes), grid)
    exact = 0.5 * a**2 * math.exp(0.5 * a**2)
    assert lhs == pytest.approx(exact, abs=1e-4)
    assert rhs == pytest.approx(exact, abs=1e-4)
    assert 0.999 <= lhs / rhs <= 1.0


def test_lsi_strict_on_sine_perturbation(grid):
    lhs, rhs = lsi_check(1.0 + 0.5 * np.sin(grid.nodes), grid)
    assert lhs <= rhs
    assert lhs / rhs < 1.0


def test_lsi_rejects_nonpositive(grid):
    with pytest.raises(ValueError):
        lsi_check(np.sin(grid.nodes), grid)


def test_lsi_bank_no_violations(grid):
    for case_id, f in lsi_bank(grid, 40, seed=7):
        lhs, rhs = lsi_check(f, grid)
        assert lhs <= rhs + scale_tol(rhs), case_id


def test_lsi_sensitivity(grid):
    """A 10% deflated rhs must be caught on the equality case."""
    lhs, rhs = lsi_check(np.exp(0.7 * grid.nodes), grid)
    assert lhs > 0.9 * rhs + scale_tol(rhs)


# ---------------------------------------------------------------- Sobolev

@pytest.fixture(scope="module")
def sobolev_grid():
    return staggered_radial_grid(150.0, 12000, 3)


def test_sobolev_extremal_saturates(sobolev_grid):
    lhs, rhs = sobolev_check(aubin_talenti_extremal(sobolev_grid), sobolev_grid)
    assert lhs / rhs == pytest.approx(1.0, abs=1e-2)


def test_sobolev_scale_invariance(sobolev_grid):
    base_lhs, base_rhs = sobolev_check(aubin_talenti_extremal(sobolev_grid),
                                       sobolev_grid)
    lhs, rhs = sobolev_check(
        (1.0 + (1.7 * sobolev_grid.nodes) ** 2) ** (-0.5), sobolev_grid)
    assert lhs / rhs == pytest.approx(base_lhs / base_rhs, abs=1e-2)


def test_sobolev_gaussian_bump_below_optimal(sobolev_grid):
    lhs, rhs = sobolev_check(np.exp(-0.5 * sobolev_grid.nodes**2), sobolev_grid)
    assert lhs / rhs < 1.0


def test_sobolev_rejects_boundary_mass(sobolev_grid):
    with pytest.raises(ValueError):
        sobolev_check(np.ones_like(sobolev_grid.nodes), sobolev_grid)


@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_sobolev_constant_matches_the_fine_grid_ratio(n):
    # measured gaps: 4.2e-4, 9.6e-6, 2.7e-5 and 2.4e-4
    assert sobolev_optimal_constant(n) == pytest.approx(sobolev_ratio_fine_grid(n),
                                                        rel=1e-3)


def test_sobolev_constant_in_elementary_terms():
    # Gamma(3) / Gamma(3/2) = 4 / sqrt(pi) and Gamma(4) / Gamma(2) = 6
    assert sobolev_optimal_constant(3) == pytest.approx(
        (4.0 / math.sqrt(math.pi)) ** (1.0 / 3.0) / math.sqrt(3.0 * math.pi), rel=1e-14)
    assert sobolev_optimal_constant(4) == pytest.approx(
        6.0 ** 0.25 / math.sqrt(8.0 * math.pi), rel=1e-14)


def test_sobolev_constant_beyond_gamma_overflow():
    # Gamma(n) overflows a double from n = 172; the constant tends to 0 like n^(-1/2)
    constants = [sobolev_optimal_constant(n) for n in (171, 172, 400)]
    assert all(0.0 < c < 0.04 for c in constants)
    assert constants == sorted(constants, reverse=True)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_bank_extremal_fails_a_constant_off_by_one_percent(factor, monkeypatch):
    """The bank's extremal passes within 0.005 of the closed form only."""
    assert run_inequality_bank("sobolev", seed=7, count=0)[0].passed
    exact = sobolev_optimal_constant
    monkeypatch.setattr(inequalities, "sobolev_optimal_constant",
                        lambda n: factor * exact(n))
    [row] = run_inequality_bank("sobolev", seed=7, count=0)
    assert row.case_id == "sobolev-extremal" and not row.passed


def test_sobolev_sensitivity(sobolev_grid):
    """A 10% deflated constant must be caught on the saturation case."""
    lhs, rhs = sobolev_check(aubin_talenti_extremal(sobolev_grid), sobolev_grid)
    assert lhs / rhs / 0.9 > 1.0 + 1e-6


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


def test_eep_fd_rejects_line_density(grid):
    gauss = gaussian_density(grid)
    with pytest.raises(ValueError, match="radial grid"):
        eep_check_fd(gauss, stationary_state(FLOWS["fast_diffusion"], gauss.grid))
    with pytest.raises(ValueError, match="radial grid with n >= 2"):
        eep_check_fd(gauss, stationary=gauss)


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
    return ZugmeyerProblem(h, psi, g, v, c), g


def test_zugmeyer_equal_functions():
    problem, g = xlogx_problem()
    lhs, rhs = zugmeyer_check(problem, problem.v_values.copy())
    assert check_hypotheses(problem, problem.v_values).ok
    assert abs(lhs) <= 1e-12
    assert abs(rhs) <= 1e-12


def test_zugmeyer_perturbation_holds():
    problem, g = xlogx_problem()
    u = problem.v_values * (1.0 + 0.1 * np.sin(2.0 * np.pi * g.nodes))
    u = u * (integrate(problem.v_values, g) / integrate(u, g))
    lhs, rhs = zugmeyer_check(problem, u)
    assert 0.0 <= lhs <= rhs + scale_tol(rhs)


def test_zugmeyer_localized_perturbation_margin():
    problem, g = xlogx_problem(c=2.0)
    bump = np.exp(-0.5 * ((g.nodes - 0.3) / 0.05) ** 2)
    u = problem.v_values * (1.0 + 0.25 * bump)
    u = u * (integrate(problem.v_values, g) / integrate(u, g))
    lhs, rhs = zugmeyer_check(problem, u)
    assert lhs <= rhs
    assert rhs - lhs > 0.0


def test_zugmeyer_refuses_inflated_constant():
    """C larger than the actual convexity of -log v must be refused."""
    g = make_uniform_grid(0.0, 1.0, 257)
    h, psi = xlogx()
    v = np.exp(-0.5 * 1.0 * (g.nodes - 0.5) ** 2)
    v = v / integrate(v, g)
    problem = ZugmeyerProblem(h, psi, g, v, c=2.0)
    report = check_hypotheses(problem, problem.v_values)
    assert not report.ok
    with pytest.raises(HypothesisViolation) as err:
        zugmeyer_check(problem, v.copy())
    assert "VIOLATED" in str(err.value)


def test_zugmeyer_mass_mismatch():
    problem, g = xlogx_problem()
    with pytest.raises(ValueError):
        zugmeyer_check(problem, 1.1 * problem.v_values)


@pytest.mark.parametrize("grid, holds", [
    (make_uniform_grid(0.0, 1.0, 65), True),
    (staggered_radial_grid(1.0, 64, 3), False),
], ids=["line", "radial3"])
def test_zugmeyer_dimension_comes_from_the_domain(grid, holds):
    """h = -sqrt(x) gives U = sqrt(x)/2: x U' + (1-n)/n U = (1/2 - (n-1)/n) U
    holds in n = 1 and fails in n = 3."""
    problem = ZugmeyerProblem(lambda x: -np.sqrt(x), lambda x: -0.5 / np.sqrt(x),
                              grid, np.ones_like(grid.nodes), c=1.0)
    assert (check_hypotheses(problem, problem.v_values).hyp1_min >= 0.0) == holds


def test_zugmeyer_radial_hypotheses():
    g = staggered_radial_grid(1.0, 128, 3)
    h, psi = xlogx()
    v = np.exp(-0.5 * 1.5 * g.nodes**2)
    v = v / integrate(v, g)
    problem = ZugmeyerProblem(h, psi, g, v, c=1.5)
    assert check_hypotheses(problem, problem.v_values).ok
    u = v * (1.0 + 0.1 * np.exp(-0.5 * ((g.nodes - 0.5) / 0.1) ** 2))
    u = u * (integrate(v, g) / integrate(u, g))
    lhs, rhs = zugmeyer_check(problem, u)
    assert lhs <= rhs + scale_tol(rhs)


# ---------------------------------------------------------------- bank runner

def test_run_bank_rows_and_order():
    rows = run_inequality_bank("lsi", seed=7, count=25)
    assert len(rows) == 25
    assert [r.case_id for r in rows] == sorted(r.case_id for r in rows)
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("name", BANK_NAMES)
def test_bank_checker_returns_its_two_sides(name, grid, sobolev_grid, radial_setup):
    """Every checker a bank runs returns (lhs, rhs) and nothing else."""
    g, stat = radial_setup
    first_case = {
        "lsi": lambda: lsi_check(lsi_bank(grid, 1, seed=7)[0][1], grid),
        "sobolev": lambda: sobolev_check(
            sobolev_bank(sobolev_grid, 1, seed=7)[0][1], sobolev_grid),
        "eep_fp": lambda: eep_check_fp(eep_fp_bank(grid, 1, seed=7)[0][1]),
        "eep_fd": lambda: eep_check_fd(
            eep_fd_bank(g, 1, seed=7, stationary=stat)[0][1], stationary=stat),
        "zugmeyer": lambda: zugmeyer_check(*zugmeyer_bank(1, seed=7)[0][1:]),
    }
    sides = first_case[name]()
    assert type(sides) is tuple and len(sides) == 2
    assert all(isinstance(side, float) for side in sides)


def test_run_bank_unknown_name():
    with pytest.raises(ValueError):
        run_inequality_bank("nope", 7, None)


def test_run_zugmeyer_bank_small():
    rows = run_inequality_bank("zugmeyer", seed=11, count=20)
    assert all(r.passed for r in rows)


def test_run_eep_fd_bank_small():
    rows = run_inequality_bank("eep_fd", seed=5, count=16)
    assert all(r.passed for r in rows)


def test_run_eep_fp_full_bank():
    rows = run_inequality_bank("eep_fp", seed=7, count=None)
    assert len(rows) == 200
    assert all(r.passed for r in rows)
