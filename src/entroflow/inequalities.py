"""Numerical verifiers for the functional inequalities tied to the flows.

Every checker computes both sides of its inequality by quadrature and
returns them; callers decide pass/fail with the magnitude-scaled tolerance
``scale_tol``.  The checkers are one-sided: lhs <= rhs must hold for every
admissible input, with equality attained on the known extremal families
(exponentials for the Gaussian log-Sobolev inequality, translated
Gaussians for the Fokker-Planck energy-production inequality, the
Aubin-Talenti profile for the optimal Sobolev inequality).

The optimal Sobolev constant is the closed form of Aubin (J. Differential
Geom. 11 (1976) 573) and Talenti (Ann. Mat. Pura Appl. 110 (1976) 353).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functionals import FLOWS
from .grids import (
    Grid,
    GridDensity,
    gaussian_density,
    gradient_fd,
    integrate,
    second_derivative_fd,
)


def scale_tol(reference: float) -> float:
    """Tolerance scaling with the magnitude of the dominant side."""
    return 1e-6 * max(1.0, abs(reference))


class HypothesisViolation(Exception):
    """A checker refused to run because a structural hypothesis fails."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


# ------------------------------------------------------------------ log-Sobolev

def lsi_check(f_values, grid: Grid) -> tuple[float, float]:
    """Gaussian log-Sobolev inequality

        int f log(f / int f dgamma) dgamma <= 1/2 int |grad f|^2 / f dgamma

    for positive f; exponentials f = e^(a x) saturate it.
    """
    if grid.is_radial:
        raise ValueError("log-Sobolev checker runs on line grids")
    f = np.asarray(f_values, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("log-Sobolev checker needs strictly positive f")
    gamma = gaussian_density(grid).values
    mean_f = integrate(f * gamma, grid)
    lhs = integrate(f * np.log(f) * gamma, grid) - mean_f * np.log(mean_f)
    rhs = 0.5 * integrate(gradient_fd(f, grid) ** 2 / f * gamma, grid)
    return lhs, rhs


# ------------------------------------------------------------------ Sobolev

def aubin_talenti_extremal(grid: Grid) -> np.ndarray:
    """Extremal profile (1 + r^2)^(-(n-2)/2) of the optimal Sobolev inequality."""
    n = grid.ambient_dim
    return (1.0 + grid.nodes**2) ** (-(n - 2) / 2.0)


def sobolev_optimal_constant(n: int) -> float:
    """Best constant in ||f||_{2n/(n-2)} <= C ||grad f||_2 on R^n, n > 2:

        C = (pi n (n-2))^(-1/2) (Gamma(n) / Gamma(n/2))^(1/n),

    through log-Gamma, since Gamma(n) overflows from n = 172.
    """
    if n <= 2:
        raise ValueError("Sobolev embedding needs n > 2")
    return (math.sqrt(1.0 / (math.pi * n * (n - 2)))
            * math.exp((math.lgamma(n) - math.lgamma(n / 2)) / n))


def sobolev_check(f_values, grid: Grid) -> tuple[float, float]:
    """Optimal Sobolev inequality ||f||_{2n/(n-2)} <= C_opt(n) ||grad f||_2
    for radial f on R^n, n > 2, with equality on the Aubin-Talenti extremal.
    """
    if not grid.is_radial or grid.ambient_dim <= 2:
        raise ValueError("Sobolev checker needs a radial grid with n > 2")
    f = np.asarray(f_values, dtype=float)
    fmax = float(np.max(np.abs(f)))
    if fmax <= 0.0:
        raise ValueError("f vanishes identically")
    # the extremal decays like r^(2-n); 1% of max keeps the truncation bias
    # of the ratio below the saturation tolerance while rejecting
    # non-decaying inputs
    if abs(f[-1]) > 1e-2 * fmax:
        raise ValueError("f has non-negligible boundary values; enlarge the "
                         "truncation radius")
    n = grid.ambient_dim
    p = 2.0 * n / (n - 2.0)
    lhs = integrate(np.abs(f) ** p, grid) ** (1.0 / p)
    rhs = sobolev_optimal_constant(n) * np.sqrt(integrate(gradient_fd(f, grid) ** 2, grid))
    return lhs, rhs


# ------------------------------------------------------ energy-production (FP)

def eep_check_fp(mu: GridDensity) -> tuple[float, float]:
    """F(mu) - F(gamma) <= |grad F|^2_mu / 2 for the Fokker-Planck energy.

    gamma, the minimizer, is the standard Gaussian on ``mu``'s grid.
    Equality on translated Gaussians.
    """
    functional = FLOWS["fokker_planck"]
    lhs = functional.value(mu) - functional.value(gaussian_density(mu.grid))
    rhs = 0.5 * functional.production(mu)
    return lhs, rhs


# --------------------------------------------------- energy-production (FD)

def eep_check_fd(mu: GridDensity, stationary: GridDensity) -> tuple[float, float]:
    """Fast-diffusion energy-production inequality on a radial grid of R^n:

        F(mu) - F(mu_inf) <= (n-1)/(2n) int |grad(mu^(-1/n) - r^2/2)|^2 dmu

    mu_inf is ``stationary``, the ``stationary_state`` of ``mu``'s grid.
    """
    n = mu.grid.ambient_dim
    functional = FLOWS["fast_diffusion"]
    lhs = functional.value(mu) - functional.value(stationary)
    potential = mu.values ** (-1.0 / n) - 0.5 * mu.grid.nodes**2
    grad = gradient_fd(potential, mu.grid)
    rhs = (n - 1.0) / (2.0 * n) * integrate(grad**2 * mu.values, mu.grid)
    return lhs, rhs


# ------------------------------------------------------------------ Zugmeyer

@dataclass
class HypothesesReport:
    h_at_zero: float
    convexity_min: float
    hyp1_min: float
    hyp1_argmin: float
    hyp2_min: float
    hyp2_argnode: float
    ok: bool

    def __str__(self):
        lines = [f"H(0) = {self.h_at_zero:g}",
                 f"min H'' over sample grid = {self.convexity_min:g}",
                 f"min xU'(x) + (1-n)/n U(x) = {self.hyp1_min:g} at x = "
                 f"{self.hyp1_argmin:g}",
                 f"min of -Hess(Psi(v)) - C = {self.hyp2_min:g} at node "
                 f"{self.hyp2_argnode:g}",
                 "hypotheses satisfied" if self.ok else "hypotheses VIOLATED"]
        return "; ".join(lines)


@dataclass(frozen=True)
class ZugmeyerProblem:
    """Data of the convex-domain Sobolev-type inequality.

    h is strictly convex C^2 with h(0) = 0, psi = h'; the reference
    function v is positive on the domain grid, whose dimension is n, and
    -Hess(psi(v)) >= c Id must hold there.
    """

    h: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    domain: Grid
    v_values: np.ndarray
    c: float


def check_hypotheses(problem: ZugmeyerProblem, u_values) -> HypothesesReport:
    """Numerical verification of the structural hypotheses for ``u_values``.

    U' is sampled by finite differences on a log-spaced positive grid up
    to the largest value of u and v; the Hessian condition is checked
    nodewise (radial eigenvalues {(psi(v))'', (psi(v))'/r} on radial
    domains).
    """
    slack = 1e-10   # absolute; ROADMAP item 1 would scale it with roundoff
    v = np.asarray(problem.v_values, dtype=float)
    h_at_zero = float(np.asarray(problem.h(np.array([0.0])))[0])
    top = max(float(np.max(v)), float(np.max(np.asarray(u_values))))
    xs = np.geomspace(1e-8 * max(top, 1.0), max(top, 1.0), 512)
    hpp = np.gradient(np.gradient(problem.h(xs), xs), xs)
    convexity_min = float(np.min(hpp))
    u_of_x = xs * problem.psi(xs) - problem.h(xs)   # U(x) = x psi(x) - h(x)
    uprime = np.gradient(u_of_x, xs)
    n = problem.domain.ambient_dim
    hyp1 = xs * uprime + (1.0 - n) / n * u_of_x
    i1 = int(np.argmin(hyp1))

    psi_v = problem.psi(v)
    d2 = second_derivative_fd(psi_v, problem.domain)
    if problem.domain.is_radial and n > 1:
        d1 = gradient_fd(psi_v, problem.domain)
        r = problem.domain.nodes
        ratio = np.where(r > 0.0, d1 / np.where(r > 0.0, r, 1.0), d2)
        hess_max_eig = np.maximum(d2, ratio)   # -Hess >= C iff both <= -C
    else:
        hess_max_eig = d2
    hyp2 = -hess_max_eig - problem.c
    i2 = int(np.argmin(hyp2))

    ok = (h_at_zero == 0.0 and convexity_min > 0.0
          and hyp1[i1] >= -slack and hyp2[i2] >= -slack)
    return HypothesesReport(h_at_zero, convexity_min,
                            float(hyp1[i1]), float(xs[i1]),
                            float(hyp2[i2]), float(problem.domain.nodes[i2]), ok)


def zugmeyer_check(problem: ZugmeyerProblem, u_values) -> tuple[float, float]:
    """Bregman-type inequality on a convex domain:

        int (H(u) - H(v) - (u-v) Psi(v))  <=  1/(2C) int |grad(Psi(v)-Psi(u))|^2 u

    for positive u with the same mass as v.  Hypothesis failures raise
    HypothesisViolation with the worst-node diagnostic; they are never
    silently checked.  ``check_hypotheses`` gives the report of a pass.
    """
    u = np.asarray(u_values, dtype=float)
    v = np.asarray(problem.v_values, dtype=float)
    grid = problem.domain
    if np.any(u <= 0.0):
        raise ValueError("u must be strictly positive")
    mass_u = integrate(u, grid)
    mass_v = integrate(v, grid)
    if abs(mass_u - mass_v) > 1e-8 * max(1.0, abs(mass_v)):
        raise ValueError(f"mass mismatch: int u = {mass_u!r}, int v = {mass_v!r}")
    report = check_hypotheses(problem, u_values=u)
    if not report.ok:
        raise HypothesisViolation(report)
    lhs = integrate(problem.h(u) - problem.h(v) - (u - v) * problem.psi(v), grid)
    diff = problem.psi(v) - problem.psi(u)
    rhs = integrate(gradient_fd(diff, grid) ** 2 * u, grid) / (2.0 * problem.c)
    return lhs, rhs


def x_log_x(x):
    """H = x log x with H(0) = 0 exactly: the Zugmeyer bank's H."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)


def one_plus_log(x):
    """Psi = H' = 1 + log x for H = ``x_log_x``."""
    x = np.asarray(x, dtype=float)
    return 1.0 + np.log(np.maximum(x, 1e-300))
