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
consequences of comparing against the stay-put start: no trial that
raises the objective is accepted.  The proximal map fixes the minimizer
of the discretized functional exactly; conversions between grid densities
and quantiles carry the usual O(1/M + h) representation error on top.

``jko_trajectory(functional, mu0, tau, steps, num_quantiles)`` is the one
entry point: the (model, density) call of ``pde.solve``, and like it, it
rejects its inputs before the first step.
"""

from __future__ import annotations

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


def supports(functional: FreeEnergy) -> bool:
    """JKO steps F = int mu log mu, with or without V = |x|^2/2, on the line."""
    return not functional.power_law


def _increments(x: np.ndarray) -> np.ndarray:
    """Forward differences of the quantiles, floored at INCREMENT_FLOOR."""
    d = np.diff(x)
    return np.maximum(d, INCREMENT_FLOOR, out=d)


def quantile_free_energy(functional: FreeEnergy, x: np.ndarray) -> float:
    """F(mu) of a supported model in quantile coordinates (forward-difference dX/dq)."""
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
    and none raises the objective above the stay-put start's.  Its arrays
    are refilled in place by the float operations of the plain expressions.
    """
    m = x_prev.size
    work, trial, trial_d = _workspace(m), np.empty(m), np.empty(m - 1)
    x, d = x_prev.copy(), _increments(x_prev)
    obj = _objective(functional, x, x_prev, tau, d, work)
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
    return x, iters


def jko_trajectory(functional: FreeEnergy, mu0: GridDensity, tau: float,
                   steps: int, num_quantiles: int) -> DensityTrajectory:
    """Run ``steps`` JKO steps of size ``tau`` from ``mu0`` in
    ``num_quantiles`` quantile coordinates.  Snapshot k is the converted
    density at time k tau; the per-step free energy, W2 step length and
    inner iterations land in ``metadata["steps"]``.  A model that
    ``supports`` rejects, a ``tau`` that is not positive and finite, steps
    outside 1..MAX_STEPS, under 64 quantiles or a density that is not
    strictly positive raise ``ValueError`` before the first step.
    """
    if not supports(functional):
        raise ValueError("JKO stepping supports the Boltzmann entropy and the "
                         "Fokker-Planck free energy on the line")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"need at least 1 and at most {MAX_STEPS} steps")
    if num_quantiles < 64:
        raise ValueError("need at least 64 quantile nodes")
    if np.any(mu0.values <= 0.0):
        raise ValueError("initial density must be strictly positive")
    dq = 1.0 / num_quantiles
    x = cdf_and_quantile(mu0, num_quantiles)
    states, logs = [density_from_quantile(x, mu0.grid)], []
    for k in range(1, steps + 1):
        x_new, iters = _jko_step_quantiles(functional, x, tau)
        w2_step = float(np.sqrt(dq * np.sum((x_new - x) ** 2)))
        x = x_new
        logs.append({"k": k, "F": quantile_free_energy(functional, x),
                     "W2_step": w2_step, "inner_iters": iters})
        states.append(density_from_quantile(x, mu0.grid))
    return DensityTrajectory(np.arange(steps + 1) * tau, states,
                             metadata={"steps": logs})


def write_step_log_csv(traj: DensityTrajectory, path) -> None:
    """Per-step log ``k,F,W2_step,inner_iters``."""
    write_csv(path, "k,F,W2_step,inner_iters", "%s,%.17g,%.17g,%s",
              ((row["k"], row["F"], row["W2_step"], row["inner_iters"])
               for row in traj.metadata.get("steps", [])))
