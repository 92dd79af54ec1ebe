import math

import numpy as np
import pytest

from entroflow import finite_flow
from entroflow.finite_flow import (
    DECAY_TOL,
    FlowDivergence,
    POTENTIALS,
    PotentialSpec,
    de_bruijn_residual,
    eep_inequality_check,
    entropy_decay_check,
    integrate_flow,
    production_decay_check,
    write_trajectory_csv,
)

QUADRATIC, QUARTIC, ANISOTROPIC = POTENTIALS


def fd_hessian(spec: PotentialSpec, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Symmetrized central differences of ``spec.grad`` at ``x``."""
    columns = []
    for i in range(spec.dim):
        step = np.zeros(spec.dim)
        step[i] = eps * max(1.0, abs(x[i]))
        columns.append((np.asarray(spec.grad(x + step))
                        - np.asarray(spec.grad(x - step))) / (2.0 * step[i]))
    hess = np.column_stack(columns)
    return 0.5 * (hess + hess.T)


def validate_potential(spec: PotentialSpec, box: np.ndarray, seed: int = 0) -> None:
    """Spot-check grad consistency (FD, rel err <= 1e-5) and Hess >= rho Id,
    the Hessian by central differences of the gradient.

    ``box`` is a (dim, 2) array of coordinate bounds, e.g. the bounding box
    of a computed trajectory.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for _ in range(32):
        x = rng.uniform(box[:, 0], box[:, 1])
        g = np.asarray(spec.grad(x))
        fd = np.empty(spec.dim)
        for i in range(spec.dim):
            step = np.zeros(spec.dim)
            step[i] = eps * max(1.0, abs(x[i]))
            fd[i] = (spec.energy(x + step) - spec.energy(x - step)) / (2.0 * step[i])
        scale = max(1.0, float(np.linalg.norm(g)))
        if np.linalg.norm(fd - g) > 1e-5 * scale:
            raise ValueError(f"{spec.name}: gradient inconsistent with energy at {x}")
        eigs = np.linalg.eigvalsh(fd_hessian(spec, x))
        if eigs.min() < spec.rho - 1e-9:
            raise ValueError(f"{spec.name}: Hessian eigenvalue {eigs.min()} "
                             f"below rho={spec.rho} at {x}")


@pytest.fixture(scope="module")
def quad_traj():
    return integrate_flow(QUADRATIC, np.array([1.0, 0.0]),
                          dt=1e-3, horizon=1.0)


@pytest.fixture(scope="module")
def quartic_traj():
    return integrate_flow(QUARTIC, np.array([1.0]),
                          dt=1e-3, horizon=5.0)


# ---------------------------------------------------------------- integration

def test_quadratic_flow_is_exact_exponential(quad_traj):
    final = quad_traj.states[-1]
    assert np.linalg.norm(final - np.array([math.exp(-1.0), 0.0])) <= 1e-9


def test_flow_from_minimizer_stays_put():
    traj = integrate_flow(QUADRATIC, np.zeros(2), dt=1e-2, horizon=1.0)
    assert np.max(np.abs(traj.states)) == 0.0


def test_quartic_self_convergence():
    spec = QUARTIC
    coarse = integrate_flow(spec, np.array([1.0]), dt=1e-3, horizon=1.0)
    fine = integrate_flow(spec, np.array([1.0]), dt=1e-5, horizon=1.0)
    assert abs(coarse.states[-1][0] - fine.states[-1][0]) <= 1e-6


def test_divergence_detection():
    runaway = PotentialSpec(
        "runaway",
        energy=lambda x: -0.5 * float(x[0] ** 2),
        grad=lambda x: -np.asarray(x, dtype=float),
        # rho and the "minimizer" 0, a maximizer, are deliberately wrong;
        # integrate_flow only sees grad
        rho=1.0,
        minimizer=np.zeros(1),
    )
    with pytest.raises(FlowDivergence):
        integrate_flow(runaway, np.array([1.0]), dt=0.5, horizon=100.0)


def test_energy_monotone_along_flows(quad_traj, quartic_traj):
    for spec, traj in ((QUADRATIC, quad_traj),
                       (QUARTIC, quartic_traj)):
        energies = np.array([spec.energy(x) for x in traj.states])
        assert np.all(np.diff(energies) <= 1e-10)


# ---------------------------------------------------------------- de Bruijn

def test_de_bruijn_residual_quadratic(quad_traj):
    assert de_bruijn_residual(quad_traj) <= 1e-6


def test_de_bruijn_residual_constant_trajectory():
    traj = integrate_flow(QUADRATIC, np.zeros(2), dt=1e-2, horizon=0.1)
    assert de_bruijn_residual(traj) <= 1e-14


def test_de_bruijn_residual_quartic_is_second_order(quartic_traj):
    spec = QUARTIC
    assert de_bruijn_residual(quartic_traj) <= 100.0 * 1e-3**2
    finer = integrate_flow(spec, np.array([1.0]), dt=5e-4, horizon=5.0)
    ratio = de_bruijn_residual(quartic_traj) / de_bruijn_residual(finer)
    assert ratio == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------- decay checks

def test_production_decay_equality_for_quadratic(quad_traj):
    ratio = production_decay_check(QUADRATIC, quad_traj)
    assert ratio != 0.0   # not the value of a vanishing start
    assert ratio <= 1.0 + DECAY_TOL
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_production_decay_quartic(quartic_traj):
    ratio = production_decay_check(QUARTIC, quartic_traj)
    assert ratio <= 1.0 + DECAY_TOL


def test_decay_checks_degenerate_start():
    spec = QUADRATIC
    traj = integrate_flow(spec, np.zeros(2), dt=1e-2, horizon=0.5)
    assert production_decay_check(spec, traj) == 0.0   # passes the verdict
    assert entropy_decay_check(spec, traj) == 0.0


def test_entropy_decay_equality_for_quadratic(quad_traj):
    ratio = entropy_decay_check(QUADRATIC, quad_traj)
    assert ratio <= 1.0 + DECAY_TOL
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_entropy_decay_quartic(quartic_traj):
    assert entropy_decay_check(QUARTIC, quartic_traj) <= 1.0 + DECAY_TOL


def test_entropy_decay_below_a_wrong_minimizer_is_inf(quad_traj):
    """An energy excess over the stated minimizer that turns negative along
    the flow fails the entropy decay outright."""
    spec = QUADRATIC
    misplaced = PotentialSpec(spec.name, spec.energy, spec.grad, rho=spec.rho,
                              minimizer=np.array([0.5, 0.0]))
    assert entropy_decay_check(misplaced, quad_traj) == math.inf


def test_inflated_rho_is_detected_on_quartic(quartic_traj):
    """Doubling rho beyond the true bound must fail: the checker is sensitive."""
    spec = QUARTIC
    inflated = PotentialSpec(spec.name, spec.energy, spec.grad, rho=2.0,
                             minimizer=spec.minimizer)
    assert not production_decay_check(inflated, quartic_traj) <= 1.0 + DECAY_TOL


def test_rho_claimed_a_ten_thousandth_high_fails_on_quadratic(quad_traj):
    """|grad E|^2 decays exactly like exp(-2t), so a claimed rho of 1 + 1e-4
    gives a worst ratio near exp(2e-4) at t = 1, above the slack."""
    spec = QUADRATIC
    claimed = PotentialSpec(spec.name, spec.energy, spec.grad, rho=1.0 + 1e-4,
                            minimizer=spec.minimizer)
    ratio = production_decay_check(claimed, quad_traj)
    assert ratio == pytest.approx(math.exp(2e-4), rel=1e-9)
    assert ratio > 1.0 + DECAY_TOL


# ---------------------------------------------------------------- EEP

def test_eep_equality_for_quadratic():
    spec = QUADRATIC
    for x in (np.array([1.0, 0.5]), np.array([-2.0, 3.0])):
        lhs, rhs = eep_inequality_check(spec, x)
        assert lhs == pytest.approx(0.5 * float(x @ x), abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_eep_at_minimizer():
    lhs, rhs = eep_inequality_check(QUADRATIC, np.zeros(2))
    assert lhs == 0.0
    assert rhs == 0.0


def test_eep_quartic_hand_values():
    lhs, rhs = eep_inequality_check(QUARTIC, np.array([1.0]))
    assert lhs == pytest.approx(0.75, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    assert lhs <= rhs


# ---------------------------------------------------------------- bank

def test_builtin_bank_passes_all_checks():
    rng = np.random.default_rng(3)
    for spec in POTENTIALS:
        x0 = rng.uniform(-1.5, 1.5, size=spec.dim)
        traj = integrate_flow(spec, x0, dt=1e-3, horizon=3.0)
        box = np.stack([traj.states.min(axis=0) - 0.1,
                        traj.states.max(axis=0) + 0.1], axis=1)
        validate_potential(spec, box, seed=5)
        assert de_bruijn_residual(traj) <= 1e-3
        assert production_decay_check(spec, traj) <= 1.0 + DECAY_TOL
        assert entropy_decay_check(spec, traj) <= 1.0 + DECAY_TOL
        lhs, rhs = eep_inequality_check(spec, x0)
        assert lhs <= rhs + 1e-9


def test_validate_potential_catches_bad_gradient():
    broken = PotentialSpec(
        "broken",
        energy=lambda x: 0.5 * float(x[0] ** 2),
        grad=lambda x: 1.1 * np.asarray(x, dtype=float),
        rho=1.0,
        minimizer=np.zeros(1),
    )
    with pytest.raises(ValueError):
        validate_potential(broken, np.array([[0.5, 2.0]]), seed=1)


def test_bank_minimizers_are_critical_points():
    for spec in POTENTIALS:
        assert spec.minimizer.shape == (spec.dim,)
        assert np.all(np.asarray(spec.grad(spec.minimizer)) == 0.0), spec.name


def test_bank_rho_bounds_the_hessian_eigenvalues():
    # closed-form Hessians of the three bank potentials
    hessians = {"quadratic": lambda x: np.eye(2),
                "quartic": lambda x: np.array([[1.0 + 3.0 * x[0] ** 2]]),
                "anisotropic_quadratic": lambda x: np.diag([2.0, 5.0])}
    rng = np.random.default_rng(5)
    for spec in POTENTIALS:
        for _ in range(32):
            x = rng.uniform(-1.5, 1.5, size=spec.dim)
            assert spec.rho <= np.linalg.eigvalsh(hessians[spec.name](x)).min()
            assert fd_hessian(spec, x) == pytest.approx(hessians[spec.name](x),
                                                         rel=1e-6, abs=1e-6)


def test_potential_spec_needs_a_nonempty_1d_minimizer():
    spec = QUADRATIC
    for bad in (np.zeros(0), np.zeros((2, 1)), 0.0):
        with pytest.raises(ValueError, match="minimizer"):
            PotentialSpec(spec.name, spec.energy, spec.grad, spec.rho, bad)


def test_bank_minimizers_are_read_only_copies():
    for spec in POTENTIALS:
        with pytest.raises(ValueError, match="read-only"):
            spec.minimizer[0] = 1.0
    beta = np.zeros(2)
    spec = PotentialSpec("copy", QUADRATIC.energy, QUADRATIC.grad, 1.0, beta)
    assert beta.flags.writeable and not spec.minimizer.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        finite_flow._ANISO_HESS[0, 0] = 1.0


def test_integrate_flow_rejects_horizon_off_the_time_grid():
    with pytest.raises(ValueError, match="not a multiple"):
        integrate_flow(QUADRATIC, np.ones(2), dt=1e-3,
                       horizon=1.0004)
    with pytest.raises(ValueError, match="shorter than dt"):
        integrate_flow(QUADRATIC, np.ones(2), dt=1e-3,
                       horizon=5e-4)


def test_anisotropic_rho_is_smallest_eigenvalue():
    spec = ANISOTROPIC
    hess = fd_hessian(spec, np.zeros(2))
    assert spec.rho == pytest.approx(np.linalg.eigvalsh(hess).min())


# ---------------------------------------------------------------- CSV

def test_trajectory_csv(tmp_path, quad_traj):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(quad_traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,E,gradnorm2"
    assert len(lines) == len(quad_traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.5, 1.0]
