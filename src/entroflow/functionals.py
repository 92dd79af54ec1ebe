"""Free-energy functionals with their Otto gradients and Hessian forms.

Four kinds are supported:

* ``boltzmann_entropy``      Ent(mu) = int mu log mu
* ``fp_free_energy``         F(mu) = int (mu log mu + |x|^2/2 mu), minimized
  by the standard Gaussian; displacement convexity constant rho = 1
* ``fd_free_energy(n)``      F(mu) = int (-mu^(-1/n) + (n-1)/n |x|^2/2) mu,
  minimized by mu_inf = (C + |x|^2/2)^(-n); rho = (n-1)/n
* ``lp_norm(p)``             int mu^p, a Lyapunov functional for the heat
  flow; no Otto gradient/Hessian implemented

Gradient fields (velocities of the associated flows):

* Ent:  grad = d/dx log(mu)
* FP:   grad = d/dx (log mu + x^2/2)
* FD:   grad = (n-1)/n d/dx (-mu^(-1/n) + r^2/2)

Hessian quadratic forms evaluated on a scalar potential Phi (second
derivatives of Phi are needed, so the potential is passed, not the field):

* Ent:  int ||Hess Phi||^2 mu
* FP:   int (||Hess Phi||^2 + |grad Phi|^2) mu
* FD:   (1/n) int (||Hess Phi||^2 - (Lap Phi)^2/n) mu
        + (n-1)/n int |grad Phi|^2 mu

For a radial profile in R^n, ||Hess Phi||^2 = Phi''^2 + (n-1)(Phi'/r)^2 and
Lap Phi = Phi'' + (n-1) Phi'/r; at an r = 0 node Phi'/r is replaced by its
limit Phi''(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DENSITY_FLOOR,
    Grid,
    GridDensity,
    TangentField,
    gaussian_density,
    gradient_fd,
    integrate,
    second_derivative_fd,
)

BOLTZMANN = "boltzmann_entropy"
FOKKER_PLANCK = "fp_free_energy"
FAST_DIFFUSION = "fd_free_energy"
LP_NORM = "lp_norm"


@dataclass(frozen=True)
class FreeEnergy:
    kind: str
    ambient_dim: int = 1
    p: float | None = None
    minimizer: GridDensity | None = None

    def __post_init__(self):
        if self.kind not in (BOLTZMANN, FOKKER_PLANCK, FAST_DIFFUSION, LP_NORM):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == FAST_DIFFUSION and self.ambient_dim < 2:
            raise ValueError("fast-diffusion free energy needs ambient_dim >= 2")
        if self.kind == LP_NORM and (self.p is None or self.p <= 1.0):
            raise ValueError("lp_norm requires p > 1")
        if self.minimizer is not None and abs(self.minimizer.mass - 1.0) > 1e-8:
            raise ValueError("minimizer must have unit mass")

    @property
    def rho(self) -> float | None:
        """Claimed displacement-convexity constant."""
        if self.kind == BOLTZMANN:
            return 0.0
        if self.kind == FOKKER_PLANCK:
            return 1.0
        if self.kind == FAST_DIFFUSION:
            n = self.ambient_dim
            return (n - 1.0) / n
        return None

    # ---------------------------------------------------------------- value

    def value(self, mu: GridDensity) -> float:
        v = mu.values
        x = mu.grid.nodes
        if self.kind == BOLTZMANN:
            return integrate(v * np.log(np.maximum(v, DENSITY_FLOOR)), mu.grid)
        if self.kind == FOKKER_PLANCK:
            ent = integrate(v * np.log(np.maximum(v, DENSITY_FLOOR)), mu.grid)
            return ent + integrate(0.5 * x**2 * v, mu.grid)
        if self.kind == FAST_DIFFUSION:
            if np.any(v <= 0.0):
                raise ValueError("fast-diffusion free energy needs strictly "
                                 "positive density (mu^(-1/n) is singular)")
            n = self.ambient_dim
            integrand = -(v ** (1.0 - 1.0 / n)) + (n - 1.0) / n * 0.5 * x**2 * v
            return integrate(integrand, mu.grid)
        return integrate(v ** self.p, mu.grid)

    # ------------------------------------------------------------- gradient

    def otto_gradient(self, mu: GridDensity) -> TangentField:
        if self.kind == LP_NORM:
            raise ValueError("no Otto gradient implemented for the L^p functional")
        if np.any(mu.values <= 0.0):
            raise ValueError("Otto gradient needs a strictly positive density")
        x = mu.grid.nodes
        if self.kind == BOLTZMANN:
            potential = np.log(mu.values)
            scale = 1.0
        elif self.kind == FOKKER_PLANCK:
            potential = np.log(mu.values) + 0.5 * x**2
            scale = 1.0
        else:
            n = self.ambient_dim
            potential = -(mu.values ** (-1.0 / n)) + 0.5 * x**2
            scale = (n - 1.0) / n
        return TangentField(mu.grid, scale * gradient_fd(potential, mu.grid))

    def production(self, mu: GridDensity) -> float:
        """Squared Otto-metric norm of the gradient, int |grad F|^2 dmu."""
        g = self.otto_gradient(mu)
        return integrate(g.values**2 * mu.values, mu.grid)

    # -------------------------------------------------------------- hessian

    def otto_hessian_quadform(self, mu: GridDensity, phi) -> float:
        if self.kind == LP_NORM:
            raise ValueError("no Otto Hessian implemented for the L^p functional")
        grid = mu.grid
        phi = np.asarray(phi, dtype=float)
        d1 = gradient_fd(phi, grid)
        d2 = second_derivative_fd(phi, grid)
        if grid.is_radial and grid.ambient_dim > 1:
            n = grid.ambient_dim
            safe_r = np.where(grid.nodes > 0.0, grid.nodes, 1.0)
            # at r = 0 the ratio Phi'/r tends to Phi''(0)
            ratio = np.where(grid.nodes > 0.0, d1 / safe_r, d2)
            hess_sq = d2**2 + (n - 1.0) * ratio**2
            lap = d2 + (n - 1.0) * ratio
        else:
            hess_sq = d2**2
            lap = d2
        v = mu.values
        if self.kind == BOLTZMANN:
            return integrate(hess_sq * v, grid)
        if self.kind == FOKKER_PLANCK:
            return integrate((hess_sq + d1**2) * v, grid)
        n = self.ambient_dim
        if not grid.is_radial and n > 1:
            raise ValueError("fast-diffusion Hessian with n > 1 needs radial geometry")
        cs_term = integrate((hess_sq - lap**2 / n) * v, grid) / n
        return cs_term + (n - 1.0) / n * integrate(d1**2 * v, grid)


def boltzmann_entropy() -> FreeEnergy:
    return FreeEnergy(BOLTZMANN)


def fp_free_energy(grid: Grid | None = None) -> FreeEnergy:
    """Fokker-Planck free energy; attaches the Gaussian minimizer when a grid
    is supplied."""
    minimizer = gaussian_density(grid) if grid is not None else None
    return FreeEnergy(FOKKER_PLANCK, minimizer=minimizer)


def fd_free_energy(ambient_dim: int, minimizer: GridDensity | None = None) -> FreeEnergy:
    return FreeEnergy(FAST_DIFFUSION, ambient_dim=ambient_dim, minimizer=minimizer)


def lp_norm(p: float) -> FreeEnergy:
    return FreeEnergy(LP_NORM, p=p)


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
