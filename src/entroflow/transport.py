"""Otto-calculus primitives on the line: exact W2, velocities, geodesics.

The computational backbone is the classical fact that in one dimension the
optimal quadratic-cost coupling is the monotone rearrangement, so

    W2(mu, nu)^2 = int_0^1 (X_mu(q) - X_nu(q))^2 dq

with X the quantile functions.  McCann geodesics interpolate quantiles
linearly; the Benamou-Brenier action of a path is assembled from the
continuity-equation velocity

    v = -(d/dt CDF) / mu,

the unique gradient-field representative of the path derivative (the
potential Phi is unique up to a constant, which does not affect v).

Radial densities in R^n are handled through the 1D pushforward of |x|
(profile measure with weight omega_n r^(n-1)); this is a representative
for radially symmetric transport, not a general n-D solver.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grids import (
    DensityTrajectory,
    Grid,
    GridDensity,
    QuantileRep,
    TangentField,
    cdf_and_quantile,
    cumulative_cdf,
    density_from_quantile,
    integrate,
)

DEFAULT_QUANTILES = 4096

# below this level the density cannot support a meaningful velocity
VELOCITY_FLOOR = 1e-12
SUPPORT_FLOOR = 1e-2   # relative mass below which the HJ residual is not read


def _check_unit_mass(*densities: GridDensity) -> None:
    for d in densities:
        if abs(d.mass - 1.0) > 1e-8:
            raise ValueError("transport operations need unit-mass densities")


def w2_1d(mu: GridDensity, nu: GridDensity,
          num_quantiles: int = DEFAULT_QUANTILES) -> float:
    """Quadratic Wasserstein distance between line densities."""
    if mu.grid.is_radial or nu.grid.is_radial:
        raise ValueError("w2_1d is for line densities; use w2_radial_profile")
    _check_unit_mass(mu, nu)
    qm = cdf_and_quantile(mu, num_quantiles)
    qn = cdf_and_quantile(nu, num_quantiles)
    diff = qm.values - qn.values
    return float(np.sqrt(np.sum(diff * diff) / num_quantiles))


def w2_radial_profile(mu: GridDensity, nu: GridDensity,
                      num_quantiles: int = DEFAULT_QUANTILES) -> float:
    """W2 between the radial-profile pushforwards of two radial densities."""
    if not (mu.grid.is_radial and nu.grid.is_radial):
        raise ValueError("w2_radial_profile expects radial densities")
    if mu.grid.ambient_dim != nu.grid.ambient_dim:
        raise ValueError("ambient dimensions differ")
    _check_unit_mass(mu, nu)

    def as_line(d):
        g = d.grid
        line = Grid(g.nodes, g.spacing, 1, "line")
        # profile density of |x|: original values times the sphere factor
        factor = g.quad_weights / line.quad_weights
        return GridDensity(line, d.values * factor)

    return w2_1d(as_line(mu), as_line(nu), num_quantiles)


def continuity_velocity(before: GridDensity, after: GridDensity,
                        dt: float) -> TangentField:
    """Velocity field of the path between two consecutive snapshots.

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
    values = np.where(mid >= VELOCITY_FLOOR, -dcdf / np.maximum(mid, VELOCITY_FLOOR), 0.0)
    return TangentField(before.grid, values)


def otto_inner(mu: GridDensity, field_a: TangentField,
               field_b: TangentField) -> float:
    """Otto metric <grad Phi, grad Psi>_mu = int grad Phi . grad Psi dmu."""
    if not (np.array_equal(mu.grid.nodes, field_a.grid.nodes)
            and np.array_equal(mu.grid.nodes, field_b.grid.nodes)):
        raise ValueError("fields and density live on different grids")
    return integrate(field_a.values * field_b.values * mu.values, mu.grid)


def mccann_geodesic(mu: GridDensity, nu: GridDensity, s: float,
                    num_quantiles: int = DEFAULT_QUANTILES) -> GridDensity:
    """Displacement interpolation at time s: quantile (1-s) X_mu + s X_nu."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    qm = cdf_and_quantile(mu, num_quantiles)
    qn = cdf_and_quantile(nu, num_quantiles)
    x = (1.0 - s) * qm.values + s * qn.values
    return density_from_quantile(QuantileRep(qm.q_nodes, x), mu.grid)


def mccann_path(mu: GridDensity, nu: GridDensity, num_times: int = 33,
                num_quantiles: int = DEFAULT_QUANTILES) -> DensityTrajectory:
    """Geodesic sampled at ``num_times`` uniform times on [0, 1]."""
    if num_times < 3:
        raise ValueError("need at least 3 path times")
    qm = cdf_and_quantile(mu, num_quantiles)
    qn = cdf_and_quantile(nu, num_quantiles)
    times = np.linspace(0.0, 1.0, num_times)
    states = []
    for s in times:
        x = (1.0 - s) * qm.values + s * qn.values
        states.append(density_from_quantile(QuantileRep(qm.q_nodes, x), mu.grid))
    return DensityTrajectory(times, states)


def _uniform_path_step(path: DensityTrajectory) -> float:
    steps = np.diff(path.times)
    if len(path) < 3 or not np.allclose(steps, steps[0], rtol=1e-8):
        raise ValueError("path needs >= 3 snapshots at uniform cadence")
    return float(steps[0])


def path_action(path: DensityTrajectory) -> float:
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
        total += integrate(v.values**2 * mid, before.grid) * ds
    return float(total)


def geodesic_hj_residual(path: DensityTrajectory) -> float:
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
        v = continuity_velocity(before, after, ds).values
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
