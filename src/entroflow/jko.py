"""Minimizing-movement (JKO) stepping for Wasserstein gradient flows.

One step solves the proximal problem

    mu_{k+1} = argmin_mu  F(mu) + W2(mu, mu_k)^2 / (2 tau)

in quantile coordinates: with X(q) the quantile function on a uniform
midpoint q-grid,

    Ent(mu)      = -int_0^1 log(dX/dq) dq,
    int V dmu    =  int_0^1 V(X(q)) dq,
    W2(mu,nu)^2  =  int_0^1 (X_mu - X_nu)^2 dq,

so for the Boltzmann entropy and the Fokker-Planck free energy the
objective Phi is strictly convex in X (this convexity in quantile
coordinates is displacement convexity; Jordan, Kinderlehrer & Otto, SIAM
J. Math. Anal. 29 (1998) 1, for the scheme).  dX/dq uses forward
differences d of X floored at INCREMENT_FLOOR.  Above the floor, M Phi
(M quantiles, dq = 1/M) is -sum log d plus convex quadratics: a
self-concordant function, whose Newton decrement

    lambda^2 = r sum delta^2 + sum (D delta / d)^2

(its Hessian is r I + D^T diag(1/d^2) D, r = 1/tau + [V], D the forward
difference) at a Newton direction delta governs Newton's method
(Nesterov & Nemirovski, Interior-Point Polynomial Algorithms in Convex
Programming, SIAM 1994).  The unique minimizer is found in two phases:

* Damped: while lambda >= 1/4 or an increment sits on the floor, a trial
  step is halved both when it raises the objective and when it takes an
  increment of X below the floor (for a start with tied quantiles, below
  its smallest increment).  It ends the step when no trial lowers the
  objective by INNER_TOL of it and the accepted step is below the step
  tolerance 1e-11 max(1, max|X|).
* Full steps: once lambda < 1/4 the full Newton step stays feasible and
  lowers the objective, and the next decrement is at most
  (lambda / (1 - lambda))^2; since the Hessian is at least r I, the next
  direction is at most that over sqrt(r) long.  So full steps are taken
  without evaluating the objective, and the step ends when that bound or
  the direction itself is within the step tolerance.  A full step that
  would cross the floor falls back to the damped phase.  Roundoff ends
  the step too: where the computed decrement exceeds twice the bound that
  the last full step certified, the directions are roundoff (at M = 65536
  and tau >= 1 they stay above the step tolerance).

A step that runs out of MAX_INNER directions raises ``SolverError``.

The Newton matrix H = A I + D^T C D of Phi (A = dq r, C = dq / d^2 for
the increments d) is solved in its flux
form, the face forces u = C D delta, with the barrier's own force dq / d
taken out in closed form: u = dq (1/d + v), where v solves the system of
size M - 1 with diagonal 2 + r d^2, off-diagonal -1 and right-hand side
-D s - r d, s = (X - X_prev) / tau + [V] X, and delta = -(s + D^T v) / r.
Every pivot of its L D L^T exceeds 1 and no term is large, while tied
quantiles put a barrier force near 1e12 dq into the gradient and couplings
near 1e24 dq into H, whose pivots then lose positivity.

Energy monotonicity F(mu_{k+1}) <= F(mu_k) and the step bound
W2(mu_{k+1}, mu_k)^2 <= 2 tau (F(mu_k) - F(mu_{k+1})) are exact
consequences of comparing against the stay-put start: the step evaluates
the objective once at its end and returns the start if that is higher
(the full steps are checked by no evaluation of their own; only roundoff
at a minimizer makes one climb).  The same evaluation gives the step log
its F and W2 step.  The proximal map fixes the minimizer of the
discretized functional exactly; conversions between grid densities and
quantiles carry the usual O(1/M + h) representation error on top.

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
from .pde import MAX_STEPS, SolverError, solve_banded

INCREMENT_FLOOR = 1e-12
INNER_TOL = 1e-9         # relative objective decrease that counts as progress
MAX_INNER = 60


def _increments(x: np.ndarray) -> np.ndarray:
    """Forward differences of the quantiles, floored at INCREMENT_FLOOR."""
    d = np.diff(x)
    return np.maximum(d, INCREMENT_FLOOR, out=d)


def _free_energy(functional, x, d, logs, squares):
    """F at quantiles ``x`` with floored increments ``d``, in the scratch
    arrays ``logs`` and ``squares``."""
    dq = 1.0 / x.size
    logs = np.divide(d, dq, out=logs)
    value = -dq * float(np.sum(np.log(logs, out=logs)))
    if functional.confined:
        squares = np.square(x, out=squares)
        squares *= 0.5
        value += dq * float(np.sum(squares))
    return value


def _workspace(m):
    """Direction, flux-form band and scratch arrays that each iteration of a
    step refills."""
    return np.empty(m), np.empty((2, m - 1)), np.empty(m), np.empty(m - 1)


def _objective(functional, x, x_prev, tau, d, work):
    """Proximal objective at ``x``; ``d`` are its floored increments and
    ``work`` a ``_workspace`` whose scratch arrays it fills."""
    dq = 1.0 / x.size
    _, _, moved, logs = work
    moved = np.subtract(x, x_prev, out=moved)
    prox = 0.5 * dq * float(np.sum(np.square(moved, out=moved))) / tau
    return _free_energy(functional, x, d, logs, moved) + prox


def _newton_direction(functional, x, x_prev, tau, d, work):
    """Newton direction of the proximal objective at ``x`` from the flux
    form of its Hessian (see the module docstring), in the arrays of the
    ``_workspace`` ``work``; ``d`` are the floored increments of ``x``."""
    delta, bands, smooth, rhs = work
    rate = 1.0 / tau
    np.subtract(x, x_prev, out=smooth)
    smooth /= tau
    if functional.confined:
        smooth += x
        rate += 1.0
    rate_d = np.multiply(d, rate, out=bands[0])
    np.subtract(smooth[:-1], smooth[1:], out=rhs)
    rhs -= rate_d
    np.multiply(rate_d, d, out=bands[1])
    bands[1] += 2.0
    bands[0, 1:] = -1.0
    v = solve_banded(bands, rhs)
    np.negative(smooth, out=delta)
    delta[1:] -= v
    delta[:-1] += v
    delta /= rate
    return delta


def _jko_step_quantiles(functional, x_prev, tau):
    """Solve the proximal problem in quantile coordinates by Newton's
    method in the two phases of the module docstring.

    Returns the minimizer and its step-log row: the free energy, the W2
    step length and the number of Newton directions.  Its arrays are
    refilled in place by the float operations of the plain expressions.
    """
    m = x_prev.size
    dq = 1.0 / m
    work, trial, trial_d = _workspace(m), np.empty(m), np.empty(m - 1)
    rate = 1.0 / tau + (1.0 if functional.confined else 0.0)
    x, d = x_prev.copy(), _increments(x_prev)
    obj = start = _objective(functional, x, x_prev, tau, d, work)
    # a trial with an increment below the floor is rejected like an
    # objective increase; a start with tied quantiles lowers the floor to
    # its smallest increment, so that the step can still move
    floor = min(INCREMENT_FLOOR, float(np.min(np.diff(x_prev))))
    bound = np.inf   # decrement that the last full Newton step certified
    for iters in range(1, MAX_INNER + 1):
        delta = _newton_direction(functional, x, x_prev, tau, d, work)
        size = float(np.max(np.abs(delta)))
        tol = 1e-11 * max(1.0, float(np.max(np.abs(x))))
        if d.min() > INCREMENT_FLOOR:   # the decrement of M Phi at x
            np.subtract(delta[1:], delta[:-1], out=trial_d)
            trial_d /= d
            decrement = np.sqrt(rate * float(np.sum(np.square(delta, out=trial)))
                                + float(np.sum(np.square(trial_d, out=trial_d))))
            if decrement > 2.0 * bound or (decrement < 0.25 and size <= tol):
                break
            if decrement < 0.25:
                np.add(delta, x, out=trial)
                np.subtract(trial[1:], trial[:-1], out=trial_d)
                if trial_d.min() > INCREMENT_FLOOR:
                    x, trial, d, trial_d, obj = trial, x, trial_d, d, None
                    bound = (decrement / (1.0 - decrement)) ** 2
                    if bound / np.sqrt(rate) <= tol:
                        break
                    continue
        bound = np.inf
        if obj is None:
            obj = _objective(functional, x, x_prev, tau, d, work)
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
        if not improved and lam * size <= tol:
            break
    else:
        raise SolverError(f"JKO Newton did not converge in {MAX_INNER} iterations")
    _, _, moved, logs = work
    moved_sq = float(np.sum(np.square(np.subtract(x, x_prev, out=moved), out=moved)))
    energy = _free_energy(functional, x, d, logs, moved)
    if energy + 0.5 * dq * moved_sq / tau > start:   # roundoff at a minimizer
        x, energy, moved_sq = x_prev.copy(), start, 0.0
    return x, {"F": energy, "W2_step": float(np.sqrt(dq * moved_sq)),
               "inner_iters": iters}


def jko_trajectory(functional: FreeEnergy, mu0: GridDensity, tau: float,
                   steps: int, num_quantiles: int) -> DensityTrajectory:
    """Run ``steps`` JKO steps of size ``tau`` from ``mu0`` in
    ``num_quantiles`` quantile coordinates.  Snapshot k is the converted
    density at time k tau; the per-step free energy, W2 step length and
    inner iterations land in ``metadata["steps"]``.  A power law (JKO steps
    F = int mu log mu, with or without V = |x|^2/2), a ``tau`` that is not
    positive and finite, steps outside 1..MAX_STEPS, under 64 quantiles or a
    density that is not of unit mass or not strictly positive raise
    ``ValueError`` before the first step.
    """
    if functional.power_law:
        raise ValueError("JKO stepping supports the Boltzmann entropy and the "
                         "Fokker-Planck free energy on the line")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"need at least 1 and at most {MAX_STEPS} steps")
    if num_quantiles < 64:
        raise ValueError("need at least 64 quantile nodes")
    if abs(mu0.mass - 1.0) > 1e-8:
        raise ValueError("initial density must have unit mass")
    if np.any(mu0.values <= 0.0):
        raise ValueError("initial density must be strictly positive")
    x = cdf_and_quantile(mu0, num_quantiles)
    states, logs = [density_from_quantile(x, mu0.grid)], []
    for k in range(1, steps + 1):
        x, row = _jko_step_quantiles(functional, x, tau)
        logs.append({"k": k, **row})
        states.append(density_from_quantile(x, mu0.grid))
    return DensityTrajectory(np.arange(steps + 1) * tau, states,
                             metadata={"steps": logs})


def write_step_log_csv(traj: DensityTrajectory, path) -> None:
    """Per-step log ``k,F,W2_step,inner_iters``, the counts written as doubles."""
    write_csv(path, "k,F,W2_step,inner_iters", [
        (row["k"], row["F"], row["W2_step"], row["inner_iters"]) for row in traj.metadata["steps"]])
