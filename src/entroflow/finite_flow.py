"""Finite-dimensional gradient flow dx/dt = -grad E with decay diagnostics.

For a C^2 potential E with Hess E >= rho Id (rho > 0) the flow S_t
satisfies the chain of facts this module checks numerically:

* d/dt E(S_t) = -|grad E(S_t)|^2                    (dissipation identity)
* |grad E(S_t)|^2 <= exp(-2 rho t) |grad E(x0)|^2   (production decay)
* E(S_t) - E(beta) <= exp(-2 rho t) (E(x0)-E(beta)) (energy decay)
* E(x) - E(beta) <= |grad E(x)|^2 / (2 rho)         (energy-production bound)

Trajectories are integrated with classical fixed-step RK4; the oracle for
its accuracy is step-halving self-convergence (no stiffness at the
rho-convex potentials in the built-in bank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import write_csv
from .pde import step_count

DIVERGENCE_LIMIT = 1e12
DECAY_TOL = 1e-6   # relative slack of the decay checks


class FlowDivergence(RuntimeError):
    """State norm blew up: non-coercive or mis-specified potential."""


@dataclass(frozen=True)
class PotentialSpec:
    """Potential E with its gradient, convexity constant rho and minimizer
    beta; the dimension is beta's size.  Specs are shared, so beta is a
    read-only copy."""

    name: str
    energy: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    rho: float
    minimizer: np.ndarray

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        m = np.array(self.minimizer, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("minimizer must be a nonempty 1d array")
        m.flags.writeable = False
        object.__setattr__(self, "minimizer", m)

    @property
    def dim(self) -> int:
        return self.minimizer.size


@dataclass(eq=False)
class Trajectory:
    """Stored states with E and |grad E|^2 at each of them."""

    times: np.ndarray
    states: np.ndarray  # shape (num_times, dim)
    energies: np.ndarray
    grad_norms_sq: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if abs(self.times[0]) > 1e-15 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must start at 0 and strictly increase")


def integrate_flow(spec: PotentialSpec, x0, dt: float, horizon: float) -> Trajectory:
    """Classical RK4 trajectory of dx/dt = -grad E from x0.

    A step and horizon that ``pde.step_count`` rejects raise ``ValueError``
    (a dt that is not positive, a horizon off its grid).  |grad E|^2 at a
    stored state comes from the RK4 stage ``k1 = -grad E``: negation is
    exact, so it equals the value from ``grad`` bit for bit.
    """
    steps = step_count(horizon, dt)
    x = np.asarray(x0, dtype=float).reshape(spec.dim)
    states = np.empty((steps + 1, spec.dim))
    states[0] = x
    energies = np.empty(steps + 1)
    grad_norms_sq = np.empty(steps + 1)

    def rhs(y):
        return -np.asarray(spec.grad(y))

    for k in range(steps):
        k1 = rhs(x)
        energies[k] = spec.energy(x)
        grad_norms_sq[k] = np.dot(k1, k1)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.linalg.norm(x) > DIVERGENCE_LIMIT:
            raise FlowDivergence(f"{spec.name}: state norm exceeded "
                                 f"{DIVERGENCE_LIMIT:g} at step {k + 1}")
        states[k + 1] = x
    g = np.asarray(spec.grad(x))
    energies[steps] = spec.energy(x)
    grad_norms_sq[steps] = np.dot(g, g)
    return Trajectory(dt * np.arange(steps + 1), states, energies, grad_norms_sq)


def de_bruijn_residual(traj: Trajectory) -> float:
    """max_t | d/dt E(S_t) + |grad E(S_t)|^2 |, centered differences in t."""
    if len(traj.times) < 3:
        raise ValueError("need at least 3 time points")
    energies = traj.energies
    dt = traj.times[1] - traj.times[0]
    dedt = (energies[2:] - energies[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dedt + traj.grad_norms_sq[1:-1])))


def _decay_check(spec: PotentialSpec, traj: Trajectory, series) -> float:
    """Worst ratio of ``series`` over exp(-2 rho t) series[0]; 0 when
    series[0] vanishes.  The decay holds when it is at most 1 + DECAY_TOL."""
    if series[0] <= 1e-30:
        return 0.0
    ratios = series / (np.exp(-2.0 * spec.rho * traj.times) * series[0])
    return float(np.max(ratios))


def production_decay_check(spec: PotentialSpec, traj: Trajectory) -> float:
    """Worst ratio of |grad E(S_t)|^2 over exp(-2 rho t) |grad E(x0)|^2."""
    return _decay_check(spec, traj, traj.grad_norms_sq)


def entropy_decay_check(spec: PotentialSpec, traj: Trajectory) -> float:
    """Worst ratio of E(S_t) - E(beta) over exp(-2 rho t) (E(x0) - E(beta))."""
    excess = traj.energies - float(spec.energy(spec.minimizer))
    if excess[0] > 1e-30 and np.any(excess < -DECAY_TOL * max(1.0, excess[0])):
        return float("inf")
    return _decay_check(spec, traj, excess)


def eep_inequality_check(spec: PotentialSpec, x) -> tuple[float, float]:
    """Energy-production inequality sides: (E(x)-E(beta), |grad E(x)|^2/(2 rho))."""
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    lhs = float(spec.energy(x) - spec.energy(spec.minimizer))
    g = np.asarray(spec.grad(x))
    rhs = float(np.dot(g, g)) / (2.0 * spec.rho)
    return lhs, rhs


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Dump ``t,x_1..x_n,E,gradnorm2`` rows."""
    dim = traj.states.shape[1]
    cols = ",".join(f"x_{i + 1}" for i in range(dim))
    write_csv(path, f"t,{cols},E,gradnorm2", np.column_stack(
        (traj.times, traj.states, traj.energies, traj.grad_norms_sq)))


_ANISO_HESS = np.diag([2.0, 5.0])
_ANISO_HESS.flags.writeable = False

# The built-in bank in diagnose's order: (name, E, grad E, rho, beta) each.
POTENTIALS = (
    # E = |x|^2/2 in 2D, rho = 1, beta = 0; flow is exactly exp(-t) x.
    PotentialSpec("quadratic", lambda x: 0.5 * float(np.dot(x, x)),
                  lambda x: np.asarray(x, dtype=float), 1.0, np.zeros(2)),
    # E = x^2/2 + x^4/4 in 1D; Hess = 1 + 3 x^2 >= 1.
    PotentialSpec("quartic", lambda x: 0.5 * float(x[0] ** 2) + 0.25 * float(x[0] ** 4),
                  lambda x: np.array([x[0] + x[0] ** 3]), 1.0, np.zeros(1)),
    # E = (2 x1^2 + 5 x2^2)/2; rho = smallest Hessian eigenvalue = 2.
    PotentialSpec("anisotropic_quadratic", lambda x: 0.5 * float(x @ _ANISO_HESS @ x),
                  lambda x: _ANISO_HESS @ np.asarray(x, dtype=float), 2.0, np.zeros(2)),
)
