"""Independent oracles and reference implementations shared by the test modules.

The Otto-calculus references on the line rest on the classical fact that
the optimal quadratic-cost coupling in one dimension is the monotone
rearrangement: McCann geodesics interpolate quantiles linearly, and the
Benamou-Brenier action of a path is assembled from the continuity-equation
velocity

    v = -(d/dt CDF) / mu,

the unique gradient-field representative of the path derivative (the
potential Phi is unique up to a constant, which does not affect v).
Radial densities in R^n are compared through the 1D pushforward of |x|
(profile measure with weight omega_n r^(n-1)), a representative for
radially symmetric transport, not a general n-D solver.

The Hessian quadratic form of a free energy F = int U(mu) + s int V mu on
a scalar potential Phi is the second variation of F along
(id + eps grad Phi)#mu, written with the pressure P = mu U' - U:

    int P ||Hess Phi||^2 + (mu P' - P) (Lap Phi)^2 + s int |grad Phi|^2 mu,

the last term only with V.  P = mu for the entropy (so mu P' - P = 0) and
P = mu^(1-1/n)/n for the power law (so mu P' - P = -P/n).  For a radial
profile in R^n, ||Hess Phi||^2 = Phi''^2 + (n-1)(Phi'/r)^2 and
Lap Phi = Phi'' + (n-1) Phi'/r; at an r = 0 node Phi'/r is replaced by its
limit Phi''(0).
"""

import itertools
import math
import warnings

import numpy as np

from entroflow.finite_flow import Trajectory, de_bruijn_residual
from entroflow.functionals import FLOWS
from entroflow.grids import (
    Grid,
    GridDensity,
    cdf_and_quantile,
    cumulative_cdf,
    density_from_quantile,
    gaussian_density,
    gradient_fd,
    integrate,
    normalize,
    second_derivative_fd,
    staggered_radial_grid,
)
from entroflow.inequalities import aubin_talenti_extremal
from entroflow.jko import INCREMENT_FLOOR
from entroflow.pde import dissipation_report
from entroflow.transport import w2_1d

# below this level the density cannot support a meaningful velocity
VELOCITY_FLOOR = 1e-12
SUPPORT_FLOOR = 1e-2   # relative mass below which the HJ residual is not read


def barenblatt_width_state(grid, c, b0, t):
    """The exact fast-diffusion solution of the Barenblatt width family at
    time ``t``, normalized on the radial ``grid``.

    The scheme discretizes d_t mu = s div(mu grad(r^2/2 - mu^(-1/n))) with
    s = (n-1)/n.  The ansatz mu = (a + b r^2/2)^(-n) solves it exactly when
    a' = -s (1-b) a and b' = s (1-b) b: the product a b = c keeps the mass,
    b(t) = 1 / (1 + (1/b0 - 1) e^(-s t)), and b = 1 is the stationary state
    (c + r^2/2)^(-n) (Barenblatt 1952; Carrillo & Toscani, Indiana Univ.
    Math. J. 49 (2000) 113).  On the truncated grid the width mode is exact
    only up to the mass beyond the radius.
    """
    n = grid.ambient_dim
    s = (n - 1.0) / n
    b = 1.0 / (1.0 + (1.0 / b0 - 1.0) * math.exp(-s * t))
    return normalize((c / b + 0.5 * b * grid.nodes**2) ** (-n), grid)


def ou_gaussian_state(grid, m0, sigma0, t):
    """The exact Fokker-Planck solution at time ``t`` from the Gaussian of
    mean ``m0`` and deviation ``sigma0``, normalized on the line ``grid``.

    d_t mu = d_x(d_x mu + x mu) is the law of the Ornstein-Uhlenbeck process
    dX = -X dt + sqrt(2) dW, which keeps a Gaussian start Gaussian with mean
    m0 e^(-t) and variance 1 + (sigma0^2 - 1) e^(-2t).
    """
    variance = 1.0 + (sigma0**2 - 1.0) * math.exp(-2.0 * t)
    return gaussian_density(grid, m0 * math.exp(-t), math.sqrt(variance))


def quantile_free_energy(functional, x):
    """F(mu) of a JKO-supported model at quantiles ``x`` on a uniform
    midpoint q-grid: -dq sum log(dX/dq), plus dq sum x^2/2 with V, with the
    forward-difference dX/dq floored at ``jko.INCREMENT_FLOOR``."""
    dq = 1.0 / x.size
    d = np.maximum(np.diff(x), INCREMENT_FLOOR)
    value = -dq * float(np.sum(np.log(d / dq)))
    if functional.confined:
        value += dq * float(np.sum(0.5 * x**2))
    return value


def sobolev_ratio_fine_grid(n):
    """||f||_{2n/(n-2)} / ||grad f||_2 of the Aubin-Talenti extremal f on
    ``staggered_radial_grid(2000, 200_000, n)``: the optimal Sobolev
    constant of R^n up to the grid's truncation and quadrature bias."""
    grid = staggered_radial_grid(2000.0, 200_000, n)
    f = aubin_talenti_extremal(grid)
    p = 2.0 * n / (n - 2.0)
    lhs = integrate(np.abs(f) ** p, grid) ** (1.0 / p)
    return lhs / np.sqrt(integrate(gradient_fd(f, grid) ** 2, grid))


def brute_force_w2_atoms(x, y):
    """Exact W2 between two k-atom uniform discrete measures by enumerating
    every assignment (k! permutations; keep k <= 8)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    assert x.size == y.size <= 8
    best = math.inf
    for perm in itertools.permutations(range(y.size)):
        cost = float(np.sum((x - y[list(perm)]) ** 2)) / x.size
        best = min(best, cost)
    return math.sqrt(best)


def monotone_w2_atoms(x, y):
    """Monotone-rearrangement cost: sort both supports and pair in order."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    return math.sqrt(float(np.mean((x - y) ** 2)))


def trajectory_report(traj, functional, minimizer):
    """``dissipation_report`` of a collected trajectory: the value and
    production of each of its states, at its time."""
    return dissipation_report(functional, traj.states[0].grid, traj.times,
                              [functional.value(s) for s in traj.states],
                              [functional.production(s) for s in traj.states],
                              minimizer)


# ------------------------------------------------------ de Bruijn identity

def de_bruijn_pde_check(traj):
    """Max residual of d/dt Ent(mu_t) + int |grad mu_t|^2 / mu_t along a
    density trajectory, by ``finite_flow.de_bruijn_residual``.

    The entropy derivative uses centered differences over the snapshot
    times; the Fisher information is the entropy's production.  Needs at
    least 3 snapshots at uniform cadence.
    """
    if len(traj.states) < 3:
        raise ValueError("need at least 3 snapshots")
    dts = np.diff(traj.times)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("snapshots must be at uniform cadence")
    ent = FLOWS["heat"]
    return de_bruijn_residual(Trajectory(
        traj.times, [s.values for s in traj.states],
        np.array([ent.value(s) for s in traj.states]),
        np.array([ent.production(s) for s in traj.states])))


# ------------------------------------------------------------ Otto calculus

def w2_radial_profile(mu, nu, num_quantiles):
    """W2 between the radial-profile pushforwards of two radial densities
    (``w2_1d`` checks their unit mass, which the pushforward keeps)."""
    if not (mu.grid.is_radial and nu.grid.is_radial):
        raise ValueError("w2_radial_profile expects radial densities")
    if mu.grid.ambient_dim != nu.grid.ambient_dim:
        raise ValueError("ambient dimensions differ")

    def as_line(d):
        g = d.grid
        line = Grid(g.nodes, g.spacing, 1, "line")
        # profile density of |x|: original values times the sphere factor
        factor = g.quad_weights / line.quad_weights
        return GridDensity(line, d.values * factor)

    return w2_1d(as_line(mu), as_line(nu), num_quantiles)


def continuity_velocity(before, after, dt):
    """Velocity at the grid nodes of the path between two consecutive
    snapshots.

    In 1D the continuity equation integrates to d/dt CDF = -mu v, so the
    midpoint-time velocity is -(CDF_after - CDF_before) / (dt * mu_mid).
    Nodes where the density sits below the floor while the CDF still moves
    are flagged with a warning.
    """
    if before.grid.is_radial:
        raise ValueError("continuity velocity is computed on line grids")
    if not np.array_equal(before.grid.nodes, after.grid.nodes):
        raise ValueError("snapshots live on different grids")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    dcdf = (cumulative_cdf(after) - cumulative_cdf(before)) / dt
    mid = 0.5 * (before.values + after.values)
    starved = (mid < VELOCITY_FLOOR) & (np.abs(dcdf) > VELOCITY_FLOOR)
    if np.any(starved):
        warnings.warn(f"density below floor at {int(starved.sum())} nodes "
                      "with moving mass; velocity zeroed there", stacklevel=2)
    return np.where(mid >= VELOCITY_FLOOR, -dcdf / np.maximum(mid, VELOCITY_FLOOR), 0.0)


def mccann_geodesic(mu, nu, s, num_quantiles):
    """Displacement interpolation at time s: quantile (1-s) X_mu + s X_nu."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    xm = cdf_and_quantile(mu, num_quantiles)
    xn = cdf_and_quantile(nu, num_quantiles)
    x = (1.0 - s) * xm + s * xn
    return density_from_quantile(x, mu.grid)


def _uniform_path_step(path):
    steps = np.diff(path.times)
    if len(path.states) < 3 or not np.allclose(steps, steps[0], rtol=1e-8):
        raise ValueError("path needs >= 3 snapshots at uniform cadence")
    return float(steps[0])


def path_action(path):
    """Benamou-Brenier action int_0^1 |v_t|^2_{mu_t} dt of a density path.

    Velocities are reconstructed at midpoint times from consecutive
    snapshots; the action of a McCann geodesic equals W2^2 of its
    endpoints, and any other path between them has larger action.
    """
    ds = _uniform_path_step(path)
    total = 0.0
    for before, after in zip(path.states[:-1], path.states[1:]):
        v = continuity_velocity(before, after, ds)
        mid = 0.5 * (before.values + after.values)
        total += integrate(v**2 * mid, before.grid) * ds
    return float(total)


def geodesic_hj_residual(path):
    """Mass-weighted sup residual of d/ds Phi + |grad Phi|^2 / 2 along a path.

    Phi is recovered from the reconstructed velocity by spatial integration
    in the zero-mean gauge.  Two regularizations make the sup meaningful:
    Phi is only defined up to a time-dependent constant, so the residual is
    projected onto mean-zero (mu-weighted) per time slice; and the
    reconstructed velocity carries O(1/mu) noise where the density
    vanishes, so the weighted sup runs over the region carrying relative
    mass >= ``SUPPORT_FLOOR``.  Small for geodesics; reported, not
    thresholded, for arbitrary paths.
    """
    ds = _uniform_path_step(path)
    grid = path.states[0].grid
    h = grid.spacing
    potentials = []
    velocities = []
    mids = []
    for before, after in zip(path.states[:-1], path.states[1:]):
        v = continuity_velocity(before, after, ds)
        phi = np.concatenate(([0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))))
        phi -= phi.mean()
        potentials.append(phi)
        velocities.append(v)
        mids.append(0.5 * (before.values + after.values))

    worst = 0.0
    for j in range(1, len(potentials) - 1):
        dphi_ds = (potentials[j + 1] - potentials[j - 1]) / (2.0 * ds)
        raw = dphi_ds + 0.5 * velocities[j] ** 2
        mu = mids[j]
        gauge = integrate(raw * mu, grid) / integrate(mu, grid)
        weight = mu / mu.max()
        mask = weight >= SUPPORT_FLOOR
        worst = max(worst, float(np.max(np.abs(raw - gauge)[mask] * weight[mask])))
    return worst


def otto_hessian_quadform(model, mu, phi):
    """Hessian quadratic form of the free energy ``model`` at ``mu`` on the
    potential ``phi``, in the pressure form of the module docstring."""
    grid = mu.grid
    n, s = model.dim_and_scale(grid)
    phi = np.asarray(phi, dtype=float)
    d1 = gradient_fd(phi, grid)
    d2 = second_derivative_fd(phi, grid)
    if grid.is_radial and grid.ambient_dim > 1:
        dim = grid.ambient_dim
        safe_r = np.where(grid.nodes > 0.0, grid.nodes, 1.0)
        # at r = 0 the ratio Phi'/r tends to Phi''(0)
        ratio = np.where(grid.nodes > 0.0, d1 / safe_r, d2)
        hess_sq = d2**2 + (dim - 1.0) * ratio**2
        lap = d2 + (dim - 1.0) * ratio
    else:
        hess_sq = d2**2
        lap = d2
    v = mu.values
    if n is None:  # P = mu, mu P' - P = 0
        quad = integrate(hess_sq * v, grid)
    else:          # P = mu^(1-1/n)/n, mu P' - P = -P/n
        quad = integrate((hess_sq - lap**2 / n) * v ** (1.0 - 1.0 / n), grid) / n
    if model.confined:
        quad += s * integrate(d1**2 * v, grid)
    return quad


def hessian_identity_check(mu, phi):
    """Both sides of the flat-space Bochner identity for the entropy Hessian.

    lhs = int (1/2 Lap |grad Phi|^2 - grad Phi . grad Lap Phi) mu
    rhs = int ||Hess Phi||^2 mu

    Each side is quadrature of an independently finite-differenced
    integrand; agreement is O(h^2) for smooth Phi with negligible boundary
    mass.  Line geometry only.
    """
    grid = mu.grid
    if grid.is_radial:
        raise ValueError("identity check implemented on line grids")
    phi = np.asarray(phi, dtype=float)
    d1 = gradient_fd(phi, grid)
    d2 = second_derivative_fd(phi, grid)
    lap_grad_sq = second_derivative_fd(d1**2, grid)
    grad_lap = gradient_fd(d2, grid)
    lhs = integrate((0.5 * lap_grad_sq - d1 * grad_lap) * mu.values, grid)
    rhs = integrate(d2**2 * mu.values, grid)
    return lhs, rhs
