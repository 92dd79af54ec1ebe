"""Free energies of McCann's form with their Otto gradients and Hessian forms.

Every flow in the library is the Wasserstein gradient flow of

    F(mu) = int U(mu) + s int V mu,

an internal energy plus, when confined, the potential energy of V = |x|^2/2
(McCann, Adv. Math. 128 (1997); Otto, Comm. PDE 26 (2001)).  The factories
of the model ``FreeEnergy`` pick U and V:

* ``boltzmann_entropy()``    U = mu log mu, no V; rho = 0
* ``fp_free_energy()``       U = mu log mu, V, s = 1: minimized by the
  standard Gaussian; displacement convexity constant rho = 1
* ``fd_free_energy(n)``      U = -mu^(1-1/n), V, s = (n-1)/n: minimized by
  mu_inf = (C + |x|^2/2)^(-n); rho = (n-1)/n
* ``lp_norm(p)``             int mu^p, a Lyapunov functional for the heat
  flow; no Otto gradient/Hessian implemented

The model holds no grid data; ``pde.stationary_state`` gives its minimizer.

The Otto gradient is grad(U'(mu) + s V) = s grad(psi(mu) + V) with
psi = log mu or -mu^(-1/n), and the production is its squared norm
int |grad F|^2 dmu.  On a scalar potential Phi (second derivatives of Phi
are needed, so the potential is passed, not the field) the Hessian
quadratic form is the second variation of F along (id + eps grad Phi)#mu,
written with the pressure P = mu U' - U:

    int P ||Hess Phi||^2 + (mu P' - P) (Lap Phi)^2 + s int |grad Phi|^2 mu,

the last term only with V.  P = mu for the entropy (so mu P' - P = 0) and
P = mu^(1-1/n)/n for the power law (so mu P' - P = -P/n).

For a radial profile in R^n, ||Hess Phi||^2 = Phi''^2 + (n-1)(Phi'/r)^2 and
Lap Phi = Phi'' + (n-1) Phi'/r; at an r = 0 node Phi'/r is replaced by its
limit Phi''(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DENSITY_FLOOR,
    GridDensity,
    TangentField,
    gradient_fd,
    integrate,
    second_derivative_fd,
)


@dataclass(frozen=True)
class FreeEnergy:
    """F = int U(mu) + s int V mu with U = mu log mu (``ambient_dim`` None),
    -mu^(1-1/n) (n = ``ambient_dim``) or mu^p (``p``, no Otto calculus);
    ``confined`` adds V = |x|^2/2."""

    ambient_dim: int | None = None
    p: float | None = None
    confined: bool = False

    def __post_init__(self):
        if self.ambient_dim is not None and self.ambient_dim < 2:
            raise ValueError("power-law free energy needs ambient_dim >= 2")
        if self.p is not None and self.p <= 1.0:
            raise ValueError("lp_norm requires p > 1")

    @property
    def scale(self) -> float:
        """s: 1 for mu log mu, (n-1)/n for the power law of dimension n."""
        n = self.ambient_dim
        return 1.0 if n is None else (n - 1.0) / n

    @property
    def rho(self) -> float | None:
        """Claimed displacement-convexity constant: s with V, else 0."""
        if self.p is not None:
            return None
        return self.scale if self.confined else 0.0

    # ---------------------------------------------------------------- value

    def value(self, mu: GridDensity) -> float:
        v = mu.values
        x = mu.grid.nodes
        n = self.ambient_dim
        if self.p is not None:
            return integrate(v ** self.p, mu.grid)
        if n is None:
            ent = integrate(v * np.log(np.maximum(v, DENSITY_FLOOR)), mu.grid)
            return ent + integrate(0.5 * x**2 * v, mu.grid) if self.confined else ent
        if np.any(v <= 0.0):
            raise ValueError("power-law free energy needs strictly positive "
                             "density (mu^(-1/n) is singular)")
        integrand = -(v ** (1.0 - 1.0 / n))
        if self.confined:
            integrand += self.scale * 0.5 * x**2 * v
        return integrate(integrand, mu.grid)

    # ------------------------------------------------------------- gradient

    def otto_gradient(self, mu: GridDensity) -> TangentField:
        if self.p is not None:
            raise ValueError("no Otto gradient implemented for the L^p functional")
        if np.any(mu.values <= 0.0):
            raise ValueError("Otto gradient needs a strictly positive density")
        n = self.ambient_dim
        potential = np.log(mu.values) if n is None else -(mu.values ** (-1.0 / n))
        if self.confined:
            potential += 0.5 * mu.grid.nodes**2
        return TangentField(mu.grid, self.scale * gradient_fd(potential, mu.grid))

    def production(self, mu: GridDensity) -> float:
        """Squared Otto-metric norm of the gradient, int |grad F|^2 dmu."""
        g = self.otto_gradient(mu)
        return integrate(g.values**2 * mu.values, mu.grid)

    # -------------------------------------------------------------- hessian

    def otto_hessian_quadform(self, mu: GridDensity, phi) -> float:
        if self.p is not None:
            raise ValueError("no Otto Hessian implemented for the L^p functional")
        grid = mu.grid
        n = self.ambient_dim
        if n is not None and not grid.is_radial:
            raise ValueError("power-law Hessian needs radial geometry")
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
        if self.confined:
            quad += self.scale * integrate(d1**2 * v, grid)
        return quad


def boltzmann_entropy() -> FreeEnergy:
    return FreeEnergy()


def fp_free_energy() -> FreeEnergy:
    return FreeEnergy(confined=True)


def fd_free_energy(ambient_dim: int) -> FreeEnergy:
    return FreeEnergy(ambient_dim, confined=True)


def lp_norm(p: float) -> FreeEnergy:
    return FreeEnergy(p=p)


def hessian_identity_check(mu: GridDensity, phi) -> tuple[float, float]:
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
