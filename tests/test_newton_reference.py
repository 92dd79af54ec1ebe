"""The fast-diffusion and JKO Newton steps against reference copies.

The reference functions below are the straightforward versions of
``pde._fd_newton_step`` and ``jko._jko_step_quantiles`` (with their helpers,
plain-expression band assembly and scipy's public LAPACK ``dptsv``).  The
library versions avoid temporaries and repeated work but must do the same
float operations in the same order: every iterate, every iteration count,
the fast-diffusion root mu^(-1/n) that a step carries to the next and the
JKO step-log row are compared bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv

from entroflow import jko, pde
from entroflow.functionals import FLOWS
from entroflow.grids import (
    cdf_and_quantile,
    make_uniform_grid,
    normalize,
    sphere_area,
    staggered_radial_grid,
)
from oracles import quantile_free_energy


class _Counter:
    """Stands in for a solve function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _ref_dptsv(diag, off, b):
    *_, x, info = dptsv(diag, off, b)
    if info != 0:
        raise pde.SolverError(f"dptsv failed with info={info}")
    return x


_ref_solves = _Counter(_ref_dptsv)


def _ref_fd_newton_step(grid, dt, mu_old):
    n = grid.ambient_dim
    r = grid.nodes
    h = grid.spacing
    w = grid.quad_weights
    kappa = dt * (n - 1.0) / n
    faces = 0.5 * (r[1:] + r[:-1])
    area = sphere_area(n) * faces ** (n - 1)
    mobility = 0.5 * (mu_old[1:] + mu_old[:-1])   # lagged
    cface = area * mobility / h
    coupling = kappa * cface

    def residual(mu):
        root = mu ** (-1.0 / n)
        psi = -root + 0.5 * r**2
        flux = cface * np.diff(psi)
        res = w * (mu - mu_old)
        res[:-1] -= kappa * flux
        res[1:] += kappa * flux
        return res, root

    mu = mu_old.copy()
    scale = float(np.max(w * np.abs(mu_old)))
    tol = pde.NEWTON_TOL * max(scale, 1e-30)
    res, root = residual(mu)
    for _ in range(pde.NEWTON_MAX_ITER):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return mu
        inverse_p = n * mu / root   # 1 / P, P = mu^(-1/n-1) / n
        diag = w * inverse_p
        diag[:-1] += coupling
        diag[1:] += coupling
        delta = _ref_solves(diag, -coupling, -res) * inverse_p
        lam = 1.0
        for _ in range(40):
            trial = mu + lam * delta
            if np.all(trial > 0.0):
                trial_res, trial_root = residual(trial)
                if np.max(np.abs(trial_res)) < norm:
                    mu, res, root = trial, trial_res, trial_root
                    break
            lam *= 0.5
        else:
            raise pde.SolverError("fast-diffusion Newton line search stalled")
    if np.max(np.abs(res)) <= tol:
        return mu
    raise pde.SolverError("fast-diffusion Newton did not converge")


def _ref_objective(functional, x, x_prev, tau):
    dq = 1.0 / x.size
    prox = 0.5 * dq * float(np.sum((x - x_prev) ** 2)) / tau
    return quantile_free_energy(functional, x) + prox


def _ref_newton_direction(functional, x, x_prev, tau):
    d = np.maximum(np.diff(x), jko.INCREMENT_FLOOR)
    rate = 1.0 / tau
    smooth = (x - x_prev) / tau
    if functional.confined:
        smooth = smooth + x
        rate += 1.0
    v = _ref_solves(rate * d * d + 2.0, -np.ones(x.size - 2),
                    smooth[:-1] - smooth[1:] - d * rate)
    delta = -smooth   # -(smooth + D^T v), (D^T v)_i = v_{i-1} - v_i
    delta[1:] -= v
    delta[:-1] += v
    return delta / rate


def _ref_jko_step_quantiles(functional, x_prev, tau):
    m = x_prev.size
    dq = 1.0 / m
    rate = 1.0 / tau + (1.0 if functional.confined else 0.0)
    x = x_prev.copy()
    stay = obj = _ref_objective(functional, x, x_prev, tau)
    floor = min(jko.INCREMENT_FLOOR, float(np.min(np.diff(x_prev))))
    bound = np.inf
    for iters in range(1, jko.MAX_INNER + 1):
        delta = _ref_newton_direction(functional, x, x_prev, tau)
        size = float(np.max(np.abs(delta)))
        tol = 1e-11 * max(1.0, float(np.max(np.abs(x))))
        d = np.diff(x)
        if np.all(d > jko.INCREMENT_FLOOR):
            # Newton decrement of m times the objective, a self-concordant
            # function: its Hessian is rate I + D^T diag(1 / d^2) D
            decrement = np.sqrt(rate * float(np.sum(delta**2))
                                + float(np.sum((np.diff(delta) / d) ** 2)))
            if decrement > 2.0 * bound:   # twice the certified bound: roundoff
                break
            if decrement < 0.25:
                if size <= tol:
                    break
                trial = x + delta
                if np.all(np.diff(trial) > jko.INCREMENT_FLOOR):
                    x, obj = trial, None
                    bound = (decrement / (1.0 - decrement)) ** 2
                    if bound / np.sqrt(rate) <= tol:   # bounds the next direction
                        break
                    continue
        bound = np.inf
        if obj is None:
            obj = _ref_objective(functional, x, x_prev, tau)
        lam = 1.0
        improved = False
        for _ in range(50):
            trial = x + lam * delta
            if np.all(np.diff(trial) >= floor):
                trial_obj = _ref_objective(functional, trial, x_prev, tau)
                if trial_obj <= obj:
                    improved = trial_obj < obj - jko.INNER_TOL * max(1.0, abs(obj))
                    x, obj = trial, trial_obj
                    break
            lam *= 0.5
        if not improved and lam * size <= tol:
            break
    else:
        raise pde.SolverError(f"JKO Newton did not converge in {jko.MAX_INNER} iterations")
    energy = quantile_free_energy(functional, x)
    moved_sq = float(np.sum((x - x_prev) ** 2))
    if energy + 0.5 * dq * moved_sq / tau > stay:
        x, energy, moved_sq = x_prev.copy(), stay, 0.0
    return x, {"F": energy, "W2_step": float(np.sqrt(dq * moved_sq)),
               "inner_iters": iters}


@pytest.fixture
def solves(monkeypatch):
    """Count the library's banded solves where both Newton steps look the
    solver up, and reset the reference count."""
    counter = _Counter(pde.solve_banded)
    monkeypatch.setattr(pde, "solve_banded", counter)
    monkeypatch.setattr(jko, "solve_banded", counter)
    _ref_solves.calls = 0
    return counter


# (dt, bump): the benchmark's perturbed start, and a long step into a deep
# dip, where the line search halves and at last stalls
FD_STARTS = [(1e-3, 0.05), (1.0, -0.9999)]


@pytest.mark.parametrize("dt, bump", FD_STARTS)
@pytest.mark.parametrize("cells", [512, 4096])
@pytest.mark.parametrize("dim", [3, 5, 10])
def test_fd_newton_step_is_reference_bitwise(dim, cells, dt, bump, solves):
    grid = staggered_radial_grid(10.0, cells, dim)
    r = grid.nodes
    mu0 = normalize((1.0 + 0.5 * r**2) ** (-dim)
                    * (1.0 + bump * np.exp(-0.5 * (r - 2.0) ** 2)), grid).values
    mu = mu_ref = mu0
    root = mu0 ** (-1.0 / dim)
    for _ in range(20):
        try:
            mu_ref = _ref_fd_newton_step(grid, dt, mu_ref)
        except pde.SolverError as err:
            with pytest.raises(pde.SolverError, match=str(err)):
                pde._fd_newton_step(grid, dt, mu, root)
            break
        mu, root = pde._fd_newton_step(grid, dt, mu, root)
        assert np.array_equal(mu, mu_ref)
        assert np.array_equal(root, mu ** (-1.0 / dim))
        assert solves.calls == _ref_solves.calls
    assert solves.calls == _ref_solves.calls >= 1


def _jko_start(m, tied=False):
    grid = make_uniform_grid(-8.0, 8.0, 2049)
    x = grid.nodes
    mix = np.exp(-0.5 * ((x + 1.5) / 0.6) ** 2) + 0.5 * np.exp(-0.5 * (x - 2.0) ** 2)
    start = cdf_and_quantile(normalize(mix, grid), m).copy()
    if tied:
        start[m // 3 + 1] = start[m // 3]
    return start


@pytest.mark.parametrize("tau", [1e-2, 1.0])
@pytest.mark.parametrize("m", [1024, 65536])
# the ids are the models' former factory names, kept so the test ids stay put
@pytest.mark.parametrize("flow", [pytest.param("heat", id="boltzmann_entropy"),
                                  pytest.param("fokker_planck", id="fp_free_energy")])
def test_jko_step_is_reference_bitwise(flow, m, tau, solves):
    functional = FLOWS[flow]
    x = x_ref = _jko_start(m)
    for _ in range(3):
        x, row = jko._jko_step_quantiles(functional, x, tau)
        x_ref, row_ref = _ref_jko_step_quantiles(functional, x_ref, tau)
        assert np.array_equal(x, x_ref)
        assert row == row_ref
        assert solves.calls == _ref_solves.calls


def test_jko_step_from_tied_start_is_reference_bitwise(solves):
    functional = FLOWS["heat"]
    tau = 1.0
    start = _jko_start(1024, tied=True)
    assert np.min(np.diff(start)) == 0.0
    x, row = jko._jko_step_quantiles(functional, start, tau)
    x_ref, row_ref = _ref_jko_step_quantiles(functional, start, tau)
    assert np.array_equal(x, x_ref)
    assert row == row_ref
    assert solves.calls == _ref_solves.calls
    assert not np.array_equal(x, start)
