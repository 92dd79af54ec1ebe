import math

import numpy as np
import pytest

from entroflow.finite_flow import (
    DecayCheck,
    FlowDivergence,
    PotentialSpec,
    anisotropic_quadratic_potential,
    builtin_potential_bank,
    de_bruijn_residual,
    eep_inequality_check,
    entropy_decay_check,
    integrate_flow,
    locate_minimizer,
    production_decay_check,
    quadratic_potential,
    quartic_potential,
    validate_potential,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def quad_traj():
    return integrate_flow(quadratic_potential(), np.array([1.0, 0.0]),
                          dt=1e-3, horizon=1.0)


@pytest.fixture(scope="module")
def quartic_traj():
    return integrate_flow(quartic_potential(), np.array([1.0]),
                          dt=1e-3, horizon=5.0)


# ---------------------------------------------------------------- integration

def test_quadratic_flow_is_exact_exponential(quad_traj):
    final = quad_traj.states[-1]
    assert np.linalg.norm(final - np.array([math.exp(-1.0), 0.0])) <= 1e-9


def test_flow_from_minimizer_stays_put():
    traj = integrate_flow(quadratic_potential(), np.zeros(2), dt=1e-2, horizon=1.0)
    assert np.max(np.abs(traj.states)) == 0.0


def test_quartic_self_convergence():
    spec = quartic_potential()
    coarse = integrate_flow(spec, np.array([1.0]), dt=1e-3, horizon=1.0)
    fine = integrate_flow(spec, np.array([1.0]), dt=1e-5, horizon=1.0)
    assert abs(coarse.states[-1][0] - fine.states[-1][0]) <= 1e-6


def test_divergence_detection():
    runaway = PotentialSpec(
        "runaway", 1,
        energy=lambda x: -0.5 * float(x[0] ** 2),
        grad=lambda x: -np.asarray(x, dtype=float),
        hess=lambda x: -np.eye(1),
        rho=1.0,  # deliberately wrong; integrate_flow only sees grad
    )
    with pytest.raises(FlowDivergence):
        integrate_flow(runaway, np.array([1.0]), dt=0.5, horizon=100.0)


def test_energy_monotone_along_flows(quad_traj, quartic_traj):
    for spec, traj in ((quadratic_potential(), quad_traj),
                       (quartic_potential(), quartic_traj)):
        energies = np.array([spec.energy(x) for x in traj.states])
        assert np.all(np.diff(energies) <= 1e-10)


# ---------------------------------------------------------------- de Bruijn

def test_de_bruijn_residual_quadratic(quad_traj):
    assert de_bruijn_residual(quadratic_potential(), quad_traj) <= 1e-6


def test_de_bruijn_residual_constant_trajectory():
    traj = integrate_flow(quadratic_potential(), np.zeros(2), dt=1e-2, horizon=0.1)
    assert de_bruijn_residual(quadratic_potential(), traj) <= 1e-14


def test_de_bruijn_residual_quartic_is_second_order(quartic_traj):
    spec = quartic_potential()
    assert de_bruijn_residual(spec, quartic_traj) <= 100.0 * 1e-3**2
    finer = integrate_flow(spec, np.array([1.0]), dt=5e-4, horizon=5.0)
    ratio = de_bruijn_residual(spec, quartic_traj) / de_bruijn_residual(spec, finer)
    assert ratio == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------- decay checks

def test_production_decay_equality_for_quadratic(quad_traj):
    check = production_decay_check(quadratic_potential(), quad_traj)
    assert not check.degenerate
    assert check.passed
    assert check.worst_ratio == pytest.approx(1.0, abs=1e-6)


def test_production_decay_quartic(quartic_traj):
    check = production_decay_check(quartic_potential(), quartic_traj)
    assert check.passed


def test_decay_checks_degenerate_start():
    spec = quadratic_potential()
    traj = integrate_flow(spec, np.zeros(2), dt=1e-2, horizon=0.5)
    assert production_decay_check(spec, traj) == DecayCheck(0.0, True, True)
    assert entropy_decay_check(spec, traj).degenerate


def test_entropy_decay_equality_for_quadratic(quad_traj):
    check = entropy_decay_check(quadratic_potential(), quad_traj)
    assert check.passed
    assert check.worst_ratio == pytest.approx(1.0, abs=1e-6)


def test_entropy_decay_quartic(quartic_traj):
    assert entropy_decay_check(quartic_potential(), quartic_traj).passed


def test_inflated_rho_is_detected_on_quartic(quartic_traj):
    """Doubling rho beyond the true bound must fail: the checker is sensitive."""
    spec = quartic_potential()
    inflated = PotentialSpec(spec.name, spec.dim, spec.energy, spec.grad,
                             spec.hess, rho=2.0, minimizer=spec.minimizer)
    assert not production_decay_check(inflated, quartic_traj).passed


# ---------------------------------------------------------------- EEP

def test_eep_equality_for_quadratic():
    spec = quadratic_potential()
    for x in (np.array([1.0, 0.5]), np.array([-2.0, 3.0])):
        lhs, rhs = eep_inequality_check(spec, x)
        assert lhs == pytest.approx(0.5 * float(x @ x), abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_eep_at_minimizer():
    lhs, rhs = eep_inequality_check(quadratic_potential(), np.zeros(2))
    assert lhs == 0.0
    assert rhs == 0.0


def test_eep_quartic_hand_values():
    lhs, rhs = eep_inequality_check(quartic_potential(), np.array([1.0]))
    assert lhs == pytest.approx(0.75, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    assert lhs <= rhs


# ---------------------------------------------------------------- bank

def test_builtin_bank_passes_all_checks():
    rng = np.random.default_rng(3)
    for spec in builtin_potential_bank():
        x0 = rng.uniform(-1.5, 1.5, size=spec.dim)
        traj = integrate_flow(spec, x0, dt=1e-3, horizon=3.0)
        box = np.stack([traj.states.min(axis=0) - 0.1,
                        traj.states.max(axis=0) + 0.1], axis=1)
        validate_potential(spec, box, seed=5)
        assert de_bruijn_residual(spec, traj) <= 1e-3
        assert production_decay_check(spec, traj).passed
        assert entropy_decay_check(spec, traj).passed
        lhs, rhs = eep_inequality_check(spec, x0)
        assert lhs <= rhs + 1e-9


def test_validate_potential_catches_bad_gradient():
    broken = PotentialSpec(
        "broken", 1,
        energy=lambda x: 0.5 * float(x[0] ** 2),
        grad=lambda x: 1.1 * np.asarray(x, dtype=float),
        hess=lambda x: np.eye(1),
        rho=1.0,
    )
    with pytest.raises(ValueError):
        validate_potential(broken, np.array([[0.5, 2.0]]), seed=1)


def test_locate_minimizer_quartic():
    spec = quartic_potential()
    bare = PotentialSpec(spec.name, spec.dim, spec.energy, spec.grad,
                         spec.hess, spec.rho)
    beta = locate_minimizer(bare, x0=np.array([1.3]))
    assert abs(beta[0]) <= 1e-10


def test_locate_minimizer_rho_3_horizon_off_the_1e_2_grid():
    # the flow horizon 20 / rho = 6.67 is no multiple of 1e-2
    shifted = PotentialSpec(
        "shifted", 1,
        energy=lambda x: 1.5 * float((x[0] - 1.0) ** 2),
        grad=lambda x: np.array([3.0 * (x[0] - 1.0)]),
        hess=lambda x: np.array([[3.0]]),
        rho=3.0,
    )
    assert locate_minimizer(shifted)[0] == pytest.approx(1.0, abs=1e-12)


def test_integrate_flow_rejects_horizon_off_the_time_grid():
    with pytest.raises(ValueError, match="not a multiple"):
        integrate_flow(quadratic_potential(), np.ones(2), dt=1e-3,
                       horizon=1.0004)
    with pytest.raises(ValueError, match="shorter than dt"):
        integrate_flow(quadratic_potential(), np.ones(2), dt=1e-3,
                       horizon=5e-4)


def test_anisotropic_rho_is_smallest_eigenvalue():
    spec = anisotropic_quadratic_potential()
    assert spec.rho == pytest.approx(np.linalg.eigvalsh(spec.hess(np.zeros(2))).min())


# ---------------------------------------------------------------- CSV

def test_trajectory_csv(tmp_path, quad_traj):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(quadratic_potential(), quad_traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,E,gradnorm2"
    assert len(lines) == len(quad_traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.5, 1.0]
