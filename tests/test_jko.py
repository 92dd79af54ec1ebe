import numpy as np
import pytest

from entroflow import jko
from entroflow.functionals import FLOWS, FreeEnergy
from entroflow.grids import (
    GridDensity,
    gaussian_density,
    integrate,
    make_uniform_grid,
    normalize,
)
from entroflow.jko import (
    INCREMENT_FLOOR,
    _increments,
    _jko_step_quantiles,
    _newton_direction,
    _objective,
    _workspace,
    jko_trajectory,
    write_step_log_csv,
)
from entroflow.pde import MAX_STEPS, solve
from oracles import quantile_free_energy


def _objective_at(functional, x, x_prev, tau):
    return _objective(functional, x, x_prev, tau, _increments(x), _workspace(x.size))


def minimize_quantile_free_energy(functional: FreeEnergy,
                                  x0: np.ndarray) -> np.ndarray:
    """Discrete minimizer of F in quantile coordinates (8 proximal iterations
    with a huge step, i.e. nearly pure Newton on F)."""
    x = x0.copy()
    for _ in range(8):
        x, _ = _jko_step_quantiles(functional, x, 1e12)
    return x


@pytest.fixture(scope="module")
def grid():
    return make_uniform_grid(-8.0, 8.0, 1025)


def _forbid_steps(monkeypatch):
    """Make any step fail, so that a rejection is seen to precede the first."""
    def step(*args):
        raise AssertionError("jko_trajectory stepped before rejecting its input")
    monkeypatch.setattr(jko, "_jko_step_quantiles", step)


@pytest.fixture
def no_steps(monkeypatch):
    _forbid_steps(monkeypatch)


def _assert_rejected(cases):
    for functional, mu0, tau, steps, m, message in cases:
        with pytest.raises(ValueError, match=message):
            jko_trajectory(functional, mu0, tau, steps, m)


def test_config_validation(grid, monkeypatch):
    mu = gaussian_density(grid)
    traj = jko_trajectory(FLOWS["fokker_planck"], mu, 0.05, 20, 64)
    assert traj.times[-1] == pytest.approx(1.0)

    _forbid_steps(monkeypatch)
    fp = FLOWS["fokker_planck"]
    _assert_rejected([
        (fp, mu, -0.1, 10, 1024, "tau must be positive"),
        (fp, mu, 0.0, 10, 1024, "tau must be positive"),
        (fp, mu, np.nan, 10, 1024, "tau must be positive and finite"),
        (fp, mu, np.inf, 10, 1024, "tau must be positive and finite"),
        (fp, mu, 0.1, 0, 1024, "at least 1 and at most"),
        (fp, mu, 0.1, MAX_STEPS + 1, 1024, "at least 1 and at most"),
        (fp, mu, 0.1, 10, 32, "at least 64 quantile nodes"),
        (fp, GridDensity(grid, 1.5 * mu.values), 0.1, 10, 1024, "unit mass"),
    ])


def test_unsupported_functional_rejected(grid, no_steps):
    _assert_rejected([
        (FLOWS["fast_diffusion"], gaussian_density(grid), 0.1, 1, 1024,
         "Boltzmann entropy"),
    ])


def test_start_that_underflows_to_zero_rejected(grid, no_steps):
    # the density underflows to 0 on part of [-8, 8]
    _assert_rejected([
        (FLOWS["heat"], gaussian_density(grid, 7.5, 0.05), 0.1, 1, 1024,
         "strictly positive"),
    ])


def test_infeasible_newton_step_is_backtracked():
    """A far outlier makes the full Newton step cross quantiles; the line
    search halves it until every increment stays above the floor."""
    functional = FLOWS["fokker_planck"]
    m, tau = 256, 1.0
    x_prev = np.sort(np.random.default_rng(3).standard_normal(m))
    x_prev[0] -= 50.0
    full_step = x_prev + _newton_direction(functional, x_prev, x_prev, tau,
                                           _increments(x_prev), _workspace(m))
    assert np.any(np.diff(full_step) < INCREMENT_FLOOR)

    x, _ = _jko_step_quantiles(functional, x_prev, tau)
    assert np.all(np.diff(x) >= INCREMENT_FLOOR)
    assert (_objective_at(functional, x, x_prev, tau)
            <= _objective_at(functional, x_prev, x_prev, tau))


def test_tied_start_moves_off_the_stay_put_candidate():
    """Tied quantiles start below the increment floor; the floor drops to
    the start's smallest increment, so the step still makes progress."""
    functional = FLOWS["heat"]
    m, tau = 256, 1.0
    x_prev = np.sort(np.random.default_rng(1).standard_normal(m))
    x_prev[101] = x_prev[100]
    x, _ = _jko_step_quantiles(functional, x_prev, tau)
    assert np.all(np.diff(x) >= 0.0)
    assert (_objective_at(functional, x, x_prev, tau)
            < _objective_at(functional, x_prev, x_prev, tau) - 0.1)


def _hand_assembled_newton_system(functional, x, x_prev, tau):
    """Dense Hessian and gradient of the proximal objective, from the
    primal expressions: H = dq (1/tau + [V]) I + D^T diag(dq / d^2) D."""
    m = x.size
    dq = 1.0 / m
    d = np.maximum(np.diff(x), INCREMENT_FLOOR)
    grad = dq * (x - x_prev) / tau
    grad[1:] -= dq / d
    grad[:-1] += dq / d
    diff = np.diff(np.eye(m), axis=0)
    hess = (dq / tau) * np.eye(m) + diff.T @ np.diag(dq / d**2) @ diff
    if functional.confined:
        grad += dq * x
        hess += dq * np.eye(m)
    return hess, grad


@pytest.mark.parametrize("kind", ["entropy", "fp"])
def test_hessian_equals_hand_assembled_bands_bitwise(kind, monkeypatch):
    """The flux-form Hessian bands and right-hand side that the Newton
    direction hands its solver (see the ``jko`` docstring), bit for bit."""
    functional = FLOWS["fokker_planck"] if kind == "fp" else FLOWS["heat"]
    rng = np.random.default_rng(4)
    m, tau = 512, 0.05
    x_prev = np.sort(rng.standard_normal(m))
    x = x_prev + 0.01 * rng.standard_normal(m)
    d = np.maximum(np.diff(x), INCREMENT_FLOOR)
    rate = 1.0 / tau + (1.0 if kind == "fp" else 0.0)
    smooth = (x - x_prev) / tau
    if kind == "fp":
        smooth = smooth + x
    seen = []

    def capture(bands, rhs):
        seen.append((bands.copy(), rhs.copy()))
        return rhs

    monkeypatch.setattr(jko, "solve_banded", capture)
    _newton_direction(functional, x, x_prev, tau, _increments(x), _workspace(m))
    (bands, rhs), = seen
    assert np.array_equal(bands[1], (d * rate) * d + 2.0)
    assert np.array_equal(bands[0, 1:], np.full(m - 2, -1.0))
    assert np.array_equal(rhs, (smooth[:-1] - smooth[1:]) - d * rate)


@pytest.mark.parametrize("kind", ["entropy", "fp"])
@pytest.mark.parametrize("tau", [0.05, 1.0])
@pytest.mark.parametrize("tied", [False, True])
def test_newton_direction_solves_the_hand_assembled_hessian(kind, tau, tied):
    """The flux-form direction solves the primal Newton system H delta =
    -grad to a normwise backward error of 5e-14 (measured: at most 7.1e-15),
    also where a tie floors an increment, so that H holds a coupling of
    dq / INCREMENT_FLOOR^2 and the gradient a barrier force of
    dq / INCREMENT_FLOOR."""
    functional = FLOWS["fokker_planck"] if kind == "fp" else FLOWS["heat"]
    rng = np.random.default_rng(4)
    m = 512
    x_prev = np.sort(rng.standard_normal(m))
    x = np.sort(x_prev + 0.01 * rng.standard_normal(m))
    if tied:
        x[201] = x[200]
    hess, grad = _hand_assembled_newton_system(functional, x, x_prev, tau)
    delta = _newton_direction(functional, x, x_prev, tau, _increments(x),
                              _workspace(m))
    scale = np.abs(hess).max() * np.abs(delta).max() + np.abs(grad).max()
    assert np.abs(hess @ delta + grad).max() <= 5e-14 * scale


def test_tied_starts_reach_the_proximal_minimizer():
    """From 20 seeded starts with three ties each (M 64-256, both
    functionals, tau 1e-2..1e2) the step ends where the Newton decrement
    grad H^-1 grad of the hand-assembled objective is below 1e-12 of the
    objective (measured: at most 3.5e-21).  With the primal Hessian and an
    LU solve the tie's barrier force and coupling cancelled the direction,
    and the steps stopped with decrements up to 441 times the objective."""
    rng = np.random.default_rng(26)
    for case in range(20):
        m = int(rng.choice([64, 128, 256]))
        functional = FLOWS["fokker_planck"] if case % 2 else FLOWS["heat"]
        tau = 10.0 ** rng.uniform(-2.0, 2.0)
        x_prev = np.sort(rng.standard_normal(m))
        for k in rng.integers(1, m - 2, 3):
            x_prev[k + 1] = x_prev[k]
        x, _ = _jko_step_quantiles(functional, x_prev, tau)
        hess, grad = _hand_assembled_newton_system(functional, x, x_prev, tau)
        decrement = grad @ np.linalg.solve(hess, grad)
        assert 0.0 <= decrement <= 1e-12 * max(1.0, abs(_objective_at(
            functional, x, x_prev, tau)))


def test_fp_fixed_point(grid):
    """The proximal map fixes the minimizer of the discretized functional.

    The exact statement lives in quantile coordinates (the solver state);
    the grid-density route adds the documented O(1/M + h) representation
    error on top.
    """
    functional = FLOWS["fokker_planck"]
    gamma = gaussian_density(grid)
    m = 2048
    from entroflow.grids import cdf_and_quantile
    x_min = minimize_quantile_free_energy(functional,
                                          cdf_and_quantile(gamma, m))
    tau = 0.05
    x_next, _ = _jko_step_quantiles(functional, x_min, tau)
    assert np.sum(np.abs(x_next - x_min)) / m <= 1e-6

    out = jko_trajectory(functional, gamma, tau, 1, m).states[-1]
    assert integrate(np.abs(out.values - gamma.values), grid) <= 1e-2
    assert abs(out.mass - 1.0) <= 1e-12
    assert np.all(out.values >= 0.0)


def test_entropy_step_spreads_variance_by_2tau(grid):
    tau = 0.05
    mu = gaussian_density(grid, sigma=1.0)
    out = jko_trajectory(FLOWS["heat"], mu, tau, 1, 2048).states[-1]
    var = integrate(grid.nodes**2 * out.values, grid) - \
        integrate(grid.nodes * out.values, grid) ** 2
    assert var == pytest.approx(1.0 + 2.0 * tau, abs=5e-3)  # O(tau^2) + conversion


def test_objective_decreases_vs_stay_put(grid):
    mu = normalize(np.exp(-0.5 * (grid.nodes - 1.0) ** 2), grid)
    functional = FLOWS["fokker_planck"]
    tau, m = 0.05, 512
    traj = jko_trajectory(functional, mu, tau, 8, m)
    logs = traj.metadata["steps"]
    from entroflow.grids import cdf_and_quantile
    f_prev = quantile_free_energy(functional, cdf_and_quantile(mu, m))
    for row in logs:
        # exact energy monotonicity in quantile coordinates
        assert row["F"] <= f_prev + 1e-9
        # step control from the minimizer property
        assert row["W2_step"] ** 2 <= 2.0 * tau * (f_prev - row["F"]) + 1e-9
        f_prev = row["F"]


def test_constant_trajectory_from_minimizer(grid):
    gamma = gaussian_density(grid)
    traj = jko_trajectory(FLOWS["fokker_planck"], gamma, 0.05, 5, 2048)
    base = traj.states[0]
    for state in traj.states[1:]:
        # bounded by the quantile representation error of gamma
        assert integrate(np.abs(state.values - base.values), grid) <= 5e-3


def test_entropy_trajectory_tracks_heat_flow_variance(grid):
    tau, steps = 0.02, 10
    traj = jko_trajectory(FLOWS["heat"], gaussian_density(grid), tau,
                          steps, 2048)
    assert traj.times[-1] == pytest.approx(tau * steps)
    for k, state in enumerate(traj.states):
        var = integrate(grid.nodes**2 * state.values, grid) - \
            integrate(grid.nodes * state.values, grid) ** 2
        assert var == pytest.approx(1.0 + 2.0 * k * tau, abs=0.02)


def test_fp_jko_converges_to_pde_solution(grid):
    """Halving tau roughly halves the gap to the Fokker-Planck solver."""
    mu0 = gaussian_density(grid, mean=1.0)
    horizon = 0.4
    pde_traj = solve(FLOWS["fokker_planck"], mu0, 1e-3, horizon, snapshot_every=40)
    pde_at = {round(t, 6): s for t, s in zip(pde_traj.times, pde_traj.states)}
    gaps = []
    for tau in (0.08, 0.04):
        traj = jko_trajectory(FLOWS["fokker_planck"], mu0, tau,
                              int(round(horizon / tau)), 2048)
        gap = 0.0
        for t, state in zip(traj.times[1:], traj.states[1:]):
            ref = pde_at[round(float(t), 6)]
            gap = max(gap, integrate(np.abs(state.values - ref.values), grid))
        gaps.append(gap)
    assert gaps[1] < gaps[0]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.5)


def test_step_log_csv(tmp_path, grid):
    traj = jko_trajectory(FLOWS["fokker_planck"], gaussian_density(grid, mean=0.5),
                          0.05, 3, 256)
    path = tmp_path / "steps.csv"
    write_step_log_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,F,W2_step,inner_iters"
    assert len(lines) == 4
