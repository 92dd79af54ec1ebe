"""The stop rule of the JKO Newton step, its monotonicity guard and its failure.

``jko._jko_step_quantiles`` takes full Newton steps without evaluating the
objective once the decrement of the self-concordant objective M Phi is
below 1/4, and ends on the bound that self-concordance puts on the next
direction (see the ``jko`` module docstring).  These tests check what that
promises from outside the loop.
"""

import numpy as np
import pytest

from entroflow import jko
from entroflow.functionals import FLOWS
from entroflow.grids import cdf_and_quantile, gaussian_density, make_uniform_grid
from entroflow.jko import (
    _increments,
    _jko_step_quantiles,
    _newton_direction,
    _objective,
    _workspace,
)
from entroflow.pde import SolverError
from oracles import quantile_free_energy


def _objective_at(functional, x, x_prev, tau):
    return _objective(functional, x, x_prev, tau, _increments(x), _workspace(x.size))


def _direction_at(functional, x, x_prev, tau):
    return _newton_direction(functional, x, x_prev, tau, _increments(x),
                             _workspace(x.size)).copy()


def _seeded_starts(count, seed):
    """(functional, start, tau): M 64-1024, both functionals in turn, tau
    log-uniform in [1e-2, 1e2], every other pair with three ties."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        m = int(rng.choice([64, 128, 256, 512, 1024]))
        functional = FLOWS["fokker_planck"] if case % 2 else FLOWS["heat"]
        tau = 10.0 ** rng.uniform(-2.0, 2.0)
        x_prev = np.sort(rng.uniform(0.3, 3.0) * rng.standard_normal(m)
                         + rng.uniform(-2.0, 2.0))
        if case % 4 >= 2:
            for k in rng.integers(1, m - 2, 3):
                x_prev[k + 1] = x_prev[k]
        yield functional, x_prev, tau


def test_one_more_newton_direction_moves_at_most_the_step_tolerance():
    """Over 80 seeded starts, one more Newton direction at the returned
    quantiles moves them by at most the step tolerance
    1e-11 max(1, max|x|) (measured: at most 0.995 of it, over 1200 such
    starts), and the returned objective is not above the stay-put start's."""
    for functional, x_prev, tau in _seeded_starts(80, 28):
        x, _ = _jko_step_quantiles(functional, x_prev, tau)
        delta = _direction_at(functional, x, x_prev, tau)
        assert np.max(np.abs(delta)) <= 1e-11 * max(1.0, float(np.max(np.abs(x))))
        assert (_objective_at(functional, x, x_prev, tau)
                <= _objective_at(functional, x_prev, x_prev, tau))


@pytest.mark.parametrize("tau", [1.0, 100.0])
@pytest.mark.parametrize("kind", ["entropy", "fp"])
def test_step_at_the_roundoff_floor_leaves_nothing_to_gain(kind, tau):
    """At M = 65536 and tau >= 1 the roundoff of a Newton direction exceeds
    the step tolerance (measured: 4 to 48 times it), so no stop on the
    step size can fire; the step ends where the decrement exceeds twice
    the bound that the full step before certified.  There three more full
    Newton steps lower the objective by at most 1e-14 of it (measured:
    at most 1.4e-16)."""
    functional = FLOWS["fokker_planck"] if kind == "fp" else FLOWS["heat"]
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    x_prev = cdf_and_quantile(gaussian_density(grid, 0.5, 0.8), 65536)
    x, _ = _jko_step_quantiles(functional, x_prev, tau)
    value = _objective_at(functional, x, x_prev, tau)
    y = x
    for _ in range(3):
        y = y + _direction_at(functional, y, x_prev, tau)
        assert _objective_at(functional, y, x_prev, tau) >= value - 1e-14 * abs(value)


def test_step_log_row_holds_the_terms_of_the_final_objective():
    """The row's F and W2 step are those of the returned quantiles, bit for
    bit, so ``jko_trajectory`` recomputes neither."""
    for functional, x_prev, tau in _seeded_starts(8, 3):
        x, row = _jko_step_quantiles(functional, x_prev, tau)
        assert row["F"] == quantile_free_energy(functional, x)
        assert row["W2_step"] == float(np.sqrt(1.0 / x.size * np.sum((x - x_prev) ** 2)))
        assert 1 <= row["inner_iters"] <= jko.MAX_INNER


def test_step_that_went_uphill_returns_the_start(monkeypatch):
    """The full Newton steps evaluate no objective, so the step compares
    its final objective with the stay-put start's.  With every direction
    reversed, the step from near the minimizer climbs, and the start comes
    back with its own free energy and a W2 step of 0."""
    functional = FLOWS["fokker_planck"]
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    x_prev = cdf_and_quantile(gaussian_density(grid, 1e-4, 1.0), 256)
    direction = jko._newton_direction

    def reversed_direction(*args):
        delta = direction(*args)
        return np.negative(delta, out=delta)

    monkeypatch.setattr(jko, "_newton_direction", reversed_direction)
    x, row = _jko_step_quantiles(functional, x_prev, 1.0)
    assert np.array_equal(x, x_prev) and x is not x_prev
    assert row["F"] == quantile_free_energy(functional, x_prev)
    assert row["W2_step"] == 0.0


def test_step_that_runs_out_of_iterations_raises(monkeypatch):
    """A step that needs more than MAX_INNER Newton directions fails loudly
    instead of returning its last iterate (this start takes 15)."""
    functional = FLOWS["fokker_planck"]
    x_prev = np.sort(np.random.default_rng(3).standard_normal(256))
    x, row = _jko_step_quantiles(functional, x_prev, 1.0)
    assert row["inner_iters"] > 2
    monkeypatch.setattr(jko, "MAX_INNER", 2)
    with pytest.raises(SolverError, match="JKO Newton did not converge in 2 iterations"):
        _jko_step_quantiles(functional, x_prev, 1.0)
