"""Seeded random test banks for the inequality checkers.

All banks draw from ``numpy.random.default_rng(seed)`` (the PCG64
generator) so a (bank, seed, count) triple reproduces byte-identically.
Case ids are ``<bank>-<index>`` in generation order.

Bank design notes:

* lsi: f = exp(g) with g a bounded random trig + bump field, so f is
  positive with Gaussian-dominated tails and finite weighted Fisher
  information.
* sobolev: sums of positive radial Gaussian bumps supported well inside
  the truncation ball (case 0 is the Aubin-Talenti extremal, the
  saturation case).
* eep_fp: random Gaussian mixtures (positive everywhere, finite free
  energy).
* eep_fd: the fast-diffusion stationary state perturbed by radial bumps
  and dilations.
* zugmeyer: H = x log x on [0,1] with v = exp(-c (x - x0)^2 / 2)
  renormalized, so -Hess(Psi(v)) = c exactly; u = v (1 + eps phi),
  mass-matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DEFAULT_LINE_DOMAIN,
    DEFAULT_RADIUS,
    Grid,
    GridDensity,
    integrate,
    make_uniform_grid,
    normalize,
    staggered_radial_grid,
)
from .functionals import FLOWS
from .inequalities import (
    ZugmeyerProblem,
    aubin_talenti_extremal,
    eep_check_fd,
    eep_check_fp,
    lsi_check,
    scale_tol,
    sobolev_check,
    xlogx,
    zugmeyer_check,
)
from .pde import stationary_state

BANK_NAMES = ("lsi", "sobolev", "eep_fp", "eep_fd", "zugmeyer")
DEFAULT_COUNTS = {"lsi": 200, "sobolev": 50, "eep_fp": 200, "eep_fd": 200,
                  "zugmeyer": 200}


@dataclass(frozen=True)
class CheckRow:
    case_id: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def lsi_bank(grid: Grid, count: int, seed: int) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    x = grid.nodes
    cases = []
    for i in range(count):
        g = np.full_like(x, rng.uniform(-0.5, 0.5))
        for _ in range(rng.integers(1, 5)):
            g += rng.uniform(-0.5, 0.5) * np.sin(rng.uniform(0.3, 2.0) * x
                                                 + rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(rng.integers(0, 3)):
            center = rng.uniform(-4.0, 4.0)
            width = rng.uniform(0.6, 2.0)
            g += rng.uniform(-0.8, 0.8) * np.exp(-0.5 * ((x - center) / width) ** 2)
        cases.append((f"lsi-{i:03d}", np.exp(g)))
    return cases


def sobolev_bank(grid: Grid, count: int, seed: int) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    r = grid.nodes
    cases = [("sobolev-extremal", aubin_talenti_extremal(grid))]
    for i in range(count):
        f = np.zeros_like(r)
        for _ in range(rng.integers(1, 4)):
            center = rng.uniform(0.0, 20.0)
            width = rng.uniform(0.5, 3.0)
            f += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((r - center) / width) ** 2)
        cases.append((f"sobolev-{i:03d}", f))
    return cases


def eep_fp_bank(grid: Grid, count: int, seed: int) -> list[tuple[str, GridDensity]]:
    rng = np.random.default_rng(seed)
    x = grid.nodes
    cases = []
    for i in range(count):
        vals = np.zeros_like(x)
        for _ in range(rng.integers(1, 4)):
            vals += rng.uniform(0.2, 1.0) * np.exp(
                -0.5 * ((x - rng.uniform(-2.0, 2.0)) / rng.uniform(0.6, 1.6)) ** 2)
        cases.append((f"eep_fp-{i:03d}", normalize(vals, grid)))
    return cases


def eep_fd_bank(count: int, seed: int,
                stationary: GridDensity) -> list[tuple[str, GridDensity]]:
    rng = np.random.default_rng(seed)
    grid = stationary.grid
    r = grid.nodes
    n = grid.ambient_dim
    norm_const = stationary.values[0] ** (-1.0 / n) - 0.5 * r[0] ** 2
    cases = []
    for i in range(count):
        if i % 4 == 0:
            # dilated stationary profile, renormalized
            lam = rng.uniform(0.7, 1.4)
            vals = (norm_const + 0.5 * (lam * r) ** 2) ** (-n)
        else:
            eps = rng.uniform(-0.3, 0.3)
            center = rng.uniform(0.0, 4.0)
            width = rng.uniform(0.5, 2.0)
            bump = np.exp(-0.5 * ((r - center) / width) ** 2)
            vals = stationary.values * (1.0 + eps * bump)
        cases.append((f"eep_fd-{i:03d}", normalize(vals, grid)))
    return cases


def zugmeyer_bank(count: int, seed: int) -> list[tuple[str, ZugmeyerProblem, np.ndarray]]:
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(0.0, 1.0, 257)
    x = grid.nodes
    h, psi = xlogx()
    cases = []
    for i in range(count):
        c = rng.uniform(0.5, 4.0)
        x0 = rng.uniform(0.2, 0.8)
        v = np.exp(-0.5 * c * (x - x0) ** 2)
        v = v / integrate(v, grid)
        eps = rng.uniform(0.02, 0.3)
        if i % 3 == 0:
            phi = np.sin(np.pi * rng.integers(1, 7) * x)
        elif i % 3 == 1:
            center = rng.uniform(0.2, 0.8)
            phi = np.exp(-0.5 * ((x - center) / rng.uniform(0.05, 0.2)) ** 2)
        else:
            phi = np.cos(np.pi * rng.integers(1, 5) * x) * x
        u = v * (1.0 + eps * phi)
        u = u * (integrate(v, grid) / integrate(u, grid))
        problem = ZugmeyerProblem(h, psi, grid, v, c)
        cases.append((f"zugmeyer-{i:03d}", problem, u))
    return cases


def run_inequality_bank(name: str, seed: int, count: int | None) -> list[CheckRow]:
    """Run a named checker over its seeded bank; rows ordered by case id."""
    if name not in BANK_NAMES:
        raise ValueError(f"unknown bank {name!r}; choose from {BANK_NAMES}")
    count = DEFAULT_COUNTS[name] if count is None else count
    rows = []
    if name == "lsi":
        grid = make_uniform_grid(*DEFAULT_LINE_DOMAIN, 2049)
        for case_id, f in lsi_bank(grid, count, seed):
            lhs, rhs = lsi_check(f, grid)
            rows.append(_row(case_id, lhs, rhs))
    elif name == "sobolev":
        grid = staggered_radial_grid(200.0, 20000, 3)
        c_opt_gap = 0.005
        for case_id, f in sobolev_bank(grid, count, seed):
            lhs, rhs = sobolev_check(f, grid)
            ratio = lhs / rhs
            if case_id.endswith("extremal"):
                passed = abs(ratio - 1.0) <= c_opt_gap
            else:
                passed = ratio <= 1.0 + 1e-6
            rows.append(CheckRow(case_id, lhs, rhs, bool(passed)))
    elif name == "eep_fp":
        grid = make_uniform_grid(*DEFAULT_LINE_DOMAIN, 2049)
        for case_id, mu in eep_fp_bank(grid, count, seed):
            lhs, rhs = eep_check_fp(mu)
            rows.append(_row(case_id, lhs, rhs))
    elif name == "eep_fd":
        grid = staggered_radial_grid(DEFAULT_RADIUS, 512, 3)
        stationary = stationary_state(FLOWS["fast_diffusion"], grid)
        for case_id, mu in eep_fd_bank(count, seed, stationary):
            lhs, rhs = eep_check_fd(mu, stationary=stationary)
            rows.append(_row(case_id, lhs, rhs))
    else:
        for case_id, problem, u in zugmeyer_bank(count, seed):
            lhs, rhs = zugmeyer_check(problem, u)
            passed = (lhs <= rhs + scale_tol(rhs)) and (lhs >= -scale_tol(rhs))
            rows.append(CheckRow(case_id, lhs, rhs, bool(passed)))
    return rows


def _row(case_id: str, lhs: float, rhs: float) -> CheckRow:
    return CheckRow(case_id, lhs, rhs, bool(lhs <= rhs + scale_tol(rhs)))
