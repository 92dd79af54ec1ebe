"""Free energies of McCann's form with their Otto gradients and production.

Every flow in the library is the Wasserstein gradient flow of

    F(mu) = int U(mu) + s int V mu,

an internal energy plus, when confined, the potential energy of V = |x|^2/2
(McCann, Adv. Math. 128 (1997); Otto, Comm. PDE 26 (2001)).  ``FLOWS``
names the three models ``FreeEnergy`` is written for, by the flow of each:

* ``heat``              U = mu log mu, no V; rho = 0
* ``fokker_planck``     U = mu log mu, V, s = 1: minimized by the standard
  Gaussian; displacement convexity constant rho = 1
* ``fast_diffusion``    U = -mu^(1-1/n), V, s = (n-1)/n: minimized by
  mu_inf = (C + |x|^2/2)^(-n); rho = (n-1)/n

The model holds no grid data: n is the dimension of the radial grid of the
density it evaluates, and ``pde.stationary_state`` gives its minimizer.

The Otto gradient is grad(U'(mu) + s V) = s grad(psi(mu) + V) with
psi = log mu or -mu^(-1/n), and the production is its squared norm
int |grad F|^2 dmu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DENSITY_FLOOR,
    Grid,
    GridDensity,
    gradient_fd,
    integrate,
)


@dataclass(frozen=True)
class FreeEnergy:
    """F = int U(mu) + s int V mu with U = mu log mu, or -mu^(1-1/n) with
    ``power_law``, n the dimension of the density's radial grid;
    ``confined`` adds V = |x|^2/2."""

    power_law: bool = False
    confined: bool = False

    def dim_and_scale(self, grid: Grid) -> tuple[int | None, float]:
        """n and s on ``grid``: (None, 1) for mu log mu, (n, (n-1)/n) for the
        power law, which needs a radial grid with n >= 2."""
        if not self.power_law:
            return None, 1.0
        n = grid.ambient_dim
        if not grid.is_radial or n < 2:
            raise ValueError("power-law free energy needs a radial grid with n >= 2")
        return n, (n - 1.0) / n

    def rho(self, grid: Grid) -> float:
        """Claimed displacement-convexity constant on ``grid``: s with V, else 0."""
        return self.dim_and_scale(grid)[1] if self.confined else 0.0

    # ---------------------------------------------------------------- value

    def value(self, mu: GridDensity) -> float:
        v = mu.values
        x = mu.grid.nodes
        n, s = self.dim_and_scale(mu.grid)
        if n is None:
            ent = integrate(v * np.log(np.maximum(v, DENSITY_FLOOR)), mu.grid)
            return ent + integrate(0.5 * x**2 * v, mu.grid) if self.confined else ent
        if np.any(v <= 0.0):
            raise ValueError("power-law free energy needs strictly positive "
                             "density (mu^(-1/n) is singular)")
        integrand = -(v ** (1.0 - 1.0 / n))
        if self.confined:
            integrand += s * 0.5 * x**2 * v
        return integrate(integrand, mu.grid)

    # ------------------------------------------------------------- gradient

    def otto_gradient(self, mu: GridDensity) -> np.ndarray:
        """s grad(psi(mu) + V) at the grid nodes."""
        if np.any(mu.values <= 0.0):
            raise ValueError("Otto gradient needs a strictly positive density")
        n, s = self.dim_and_scale(mu.grid)
        potential = np.log(mu.values) if n is None else -(mu.values ** (-1.0 / n))
        if self.confined:
            potential += 0.5 * mu.grid.nodes**2
        return s * gradient_fd(potential, mu.grid)

    def production(self, mu: GridDensity) -> float:
        """Squared Otto-metric norm of the gradient, int |grad F|^2 dmu."""
        return integrate(self.otto_gradient(mu) ** 2 * mu.values, mu.grid)


# flow name -> the free energy whose Wasserstein gradient flow it is
FLOWS = {"heat": FreeEnergy(),
         "fokker_planck": FreeEnergy(confined=True),
         "fast_diffusion": FreeEnergy(power_law=True, confined=True)}
