"""Exact quadratic Wasserstein distance between densities on the line.

In one dimension the optimal quadratic-cost coupling is the monotone
rearrangement, so

    W2(mu, nu)^2 = int_0^1 (X_mu(q) - X_nu(q))^2 dq

with X the quantile functions, sampled at midpoint quantile nodes.
"""

from __future__ import annotations

import numpy as np

from .grids import GridDensity, cdf_and_quantile


def w2_1d(mu: GridDensity, nu: GridDensity, num_quantiles: int) -> float:
    """Quadratic Wasserstein distance between line densities."""
    if mu.grid.is_radial or nu.grid.is_radial:
        raise ValueError("w2_1d is for line densities")
    if abs(mu.mass - 1.0) > 1e-8 or abs(nu.mass - 1.0) > 1e-8:
        raise ValueError("transport operations need unit-mass densities")
    xm = cdf_and_quantile(mu, num_quantiles)
    xn = cdf_and_quantile(nu, num_quantiles)
    diff = xm - xn
    return float(np.sqrt(np.sum(diff * diff) / num_quantiles))
