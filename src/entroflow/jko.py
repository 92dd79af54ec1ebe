"""Minimizing-movement (JKO) stepping for Wasserstein gradient flows.

One step solves the proximal problem

    mu_{k+1} = argmin_mu  F(mu) + W2(mu, mu_k)^2 / (2 tau)

in quantile coordinates: with X(q) the quantile function on a uniform
midpoint q-grid,

    Ent(mu)      = -int_0^1 log(dX/dq) dq,
    int V dmu    =  int_0^1 V(X(q)) dq,
    W2(mu,nu)^2  =  int_0^1 (X_mu - X_nu)^2 dq,

so for the Boltzmann entropy and the Fokker-Planck free energy the
objective is strictly convex in X (this convexity in quantile coordinates
is displacement convexity).  The unique minimizer is found by damped
Newton with feasibility backtracking: a trial step is halved both when it
raises the objective and when it takes an increment of X below
INCREMENT_FLOOR (for a start with tied quantiles, below its smallest
increment).  dX/dq uses forward differences of X with that floor.

Energy monotonicity F(mu_{k+1}) <= F(mu_k) and the step bound
W2(mu_{k+1}, mu_k)^2 <= 2 tau (F(mu_k) - F(mu_{k+1})) are exact
consequences of comparing against the stay-put candidate; an objective
increase is a hard error.  The proximal map fixes the minimizer of the
discretized functional exactly; conversions between grid densities and
quantiles carry the usual O(1/M + h) representation error on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import FreeEnergy
from .grids import (
    DensityTrajectory,
    GridDensity,
    cdf_and_quantile,
    density_from_quantile,
    write_csv,
)
from .pde import MAX_STEPS, flux_bands, solve_banded

INCREMENT_FLOOR = 1e-12
INNER_TOL = 1e-9         # relative objective decrease that counts as progress
MAX_INNER = 60


@dataclass(frozen=True)
class JkoConfig:
    tau: float
    steps: int
    num_quantiles: int = 1024

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"need at least 1 and at most {MAX_STEPS} steps")
        if self.num_quantiles < 64:
            raise ValueError("need at least 64 quantile nodes")

    @property
    def horizon(self) -> float:
        return self.tau * self.steps


def supports(functional: FreeEnergy) -> bool:
    """JKO steps F = int mu log mu, with or without V = |x|^2/2, on the line."""
    return not functional.power_law


def _require_supported(functional: FreeEnergy) -> None:
    if not supports(functional):
        raise ValueError("JKO stepping supports the Boltzmann entropy and the "
                         "Fokker-Planck free energy on the line")


def _increments(x: np.ndarray) -> np.ndarray:
    """Forward differences of the quantiles, floored at INCREMENT_FLOOR."""
    d = np.diff(x)
    return np.maximum(d, INCREMENT_FLOOR, out=d)


def quantile_free_energy(functional: FreeEnergy, x: np.ndarray) -> float:
    """F(mu) evaluated in quantile coordinates (forward-difference dX/dq)."""
    _require_supported(functional)
    return _free_energy(functional, x, _increments(x))


def _free_energy(functional, x, d, logs=None, squares=None):
    """F at quantiles ``x`` with floored increments ``d``; optional scratch."""
    dq = 1.0 / x.size
    logs = np.divide(d, dq, out=logs)
    value = -dq * float(np.sum(np.log(logs, out=logs)))
    if functional.confined:
        squares = np.square(x, out=squares)
        squares *= 0.5
        value += dq * float(np.sum(squares))
    return value


def _workspace(m):
    """Gradient, band and scratch arrays that each iteration of a step refills."""
    return np.empty(m), np.zeros((3, m)), np.empty(m), np.empty(m - 1)


def _objective(functional, x, x_prev, tau, d, work=None):
    """Proximal objective at ``x``; ``d`` are its floored increments."""
    dq = 1.0 / x.size
    _, _, moved, logs = work or (None,) * 4
    moved = np.subtract(x, x_prev, out=moved)
    prox = 0.5 * dq * float(np.sum(np.square(moved, out=moved))) / tau
    return _free_energy(functional, x, d, logs, moved) + prox


def _grad_hess(functional, x, x_prev, tau, d, work=None):
    """Gradient and tridiagonal Hessian bands of the proximal objective at
    ``x``, in ``work`` if given; ``d`` are its floored increments."""
    m = x.size
    dq = 1.0 / m
    grad, bands, moved, inv = work or _workspace(m)
    np.divide(1.0, d, out=inv)
    barrier = np.multiply(dq, inv, out=moved[:-1])
    grad.fill(0.0)
    grad[1:] -= barrier       # d/dX_{j+1} of -dq log d_j
    grad[:-1] += barrier      # d/dX_j of -dq log d_j
    cross = np.square(inv, out=inv)
    cross *= dq               # log-barrier coupling on (j, j+1)
    flux_bands(0.0, cross, cross, out=bands)
    if functional.confined:
        grad += np.multiply(dq, x, out=moved)
        bands[1] += dq
    np.subtract(x, x_prev, out=moved)
    moved *= dq
    moved /= tau
    grad += moved
    bands[1] += dq / tau
    return grad, bands


def _jko_step_quantiles(functional, x_prev, tau):
    """Solve the proximal problem in quantile coordinates by damped Newton.

    Each accepted trial hands its floored increments to the next Hessian,
    and the stay-put objective is the objective of the start.  Its arrays
    are refilled in place by the float operations of the plain expressions.
    """
    m = x_prev.size
    work, trial, trial_d = _workspace(m), np.empty(m), np.empty(m - 1)
    x, d = x_prev.copy(), _increments(x_prev)
    obj = stay = _objective(functional, x, x_prev, tau, d, work)
    # a trial with an increment below the floor is rejected like an
    # objective increase; a start with tied quantiles lowers the floor to
    # its smallest increment, so that the step can still move
    floor = min(INCREMENT_FLOOR, float(np.min(np.diff(x_prev))))
    iters = 0
    for iters in range(1, MAX_INNER + 1):
        grad, bands = _grad_hess(functional, x, x_prev, tau, d, work)
        delta = solve_banded(bands, np.negative(grad, out=grad))
        lam = 1.0
        improved = False
        for _ in range(50):
            np.multiply(delta, lam, out=trial)
            trial += x
            np.subtract(trial[1:], trial[:-1], out=trial_d)
            if trial_d.min() >= floor:
                np.maximum(trial_d, INCREMENT_FLOOR, out=trial_d)
                trial_obj = _objective(functional, trial, x_prev, tau, trial_d, work)
                if trial_obj <= obj:
                    improved = trial_obj < obj - INNER_TOL * max(1.0, abs(obj))
                    x, trial, d, trial_d, obj = trial, x, trial_d, d, trial_obj
                    break
            lam *= 0.5
        step = lam * float(np.max(np.abs(delta)))
        if not improved and step <= 1e-11 * max(1.0, float(np.max(np.abs(x)))):
            break
    if obj > stay + 1e-12 * max(1.0, abs(stay)):
        raise RuntimeError("proximal objective increased over the stay-put "
                           "candidate; inner solver bug")
    return x, iters


def jko_step(functional: FreeEnergy, mu_k: GridDensity, cfg: JkoConfig) -> GridDensity:
    """One minimizing-movement step from a grid density."""
    _require_supported(functional)
    x_prev = cdf_and_quantile(mu_k, cfg.num_quantiles)
    x, _ = _jko_step_quantiles(functional, x_prev, cfg.tau)
    return density_from_quantile(x, mu_k.grid)


def jko_trajectory(functional: FreeEnergy, mu0: GridDensity,
                   cfg: JkoConfig) -> DensityTrajectory:
    """Run cfg.steps JKO steps; the whole chain stays in quantile coordinates.

    Snapshot k is the converted density at time k tau.  Per-step records
    (quantile-coordinate free energy, W2 step length, inner iterations)
    land in ``metadata["steps"]``.
    """
    _require_supported(functional)
    dq = 1.0 / cfg.num_quantiles
    x = cdf_and_quantile(mu0, cfg.num_quantiles)
    times = [0.0]
    states = [density_from_quantile(x, mu0.grid)]
    logs = []
    for k in range(1, cfg.steps + 1):
        x_new, iters = _jko_step_quantiles(functional, x, cfg.tau)
        w2_step = float(np.sqrt(dq * np.sum((x_new - x) ** 2)))
        x = x_new
        logs.append({"k": k,
                     "F": quantile_free_energy(functional, x),
                     "W2_step": w2_step,
                     "inner_iters": iters})
        times.append(k * cfg.tau)
        states.append(density_from_quantile(x, mu0.grid))
    return DensityTrajectory(np.asarray(times), states,
                             metadata={"steps": logs})


def write_step_log_csv(traj: DensityTrajectory, path) -> None:
    """Per-step log ``k,F,W2_step,inner_iters``."""
    write_csv(path, "k,F,W2_step,inner_iters", "%s,%.17g,%.17g,%s",
              ((row["k"], row["F"], row["W2_step"], row["inner_iters"])
               for row in traj.metadata.get("steps", [])))
