"""The fast-diffusion and JKO Newton steps against reference copies.

The reference functions below are the straightforward versions of
``pde._fd_newton_step`` and ``jko._jko_step_quantiles`` (with their helpers,
the broadcasting band assembly and scipy's ``solve_banded``).  The library
versions avoid temporaries and repeated work but must do the same float
operations in the same order: every iterate and every iteration count is
compared bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded as scipy_solve_banded

from entroflow import jko, pde
from entroflow.functionals import boltzmann_entropy, fp_free_energy
from entroflow.grids import (
    cdf_and_quantile,
    make_uniform_grid,
    normalize,
    sphere_area,
    staggered_radial_grid,
)


class _Counter:
    """Stands in for a solve function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


_ref_solves = _Counter(lambda ab, b: scipy_solve_banded((1, 1), ab, b,
                                                        check_finite=False))


def _ref_flux_bands(diag, left, right, row_scale=1.0):
    scale = np.broadcast_to(row_scale, np.shape(diag))
    bands = np.zeros((3, np.size(diag)))
    upper, main, lower = bands
    main[:] = diag
    main[:-1] += scale[:-1] * left
    main[1:] += scale[1:] * right
    upper[1:] = -(scale[:-1] * right)
    lower[:-1] = -(scale[1:] * left)
    return bands


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
        psi = -(mu ** (-1.0 / n)) + 0.5 * r**2
        flux = cface * np.diff(psi)
        res = w * (mu - mu_old)
        res[:-1] -= kappa * flux
        res[1:] += kappa * flux
        return res

    mu = mu_old.copy()
    scale = float(np.max(w * np.abs(mu_old)))
    tol = pde.NEWTON_TOL * max(scale, 1e-30)
    res = residual(mu)
    for _ in range(pde.NEWTON_MAX_ITER):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return mu
        dpsi = mu ** (-1.0 / n - 1.0) / n
        delta = _ref_solves(_ref_flux_bands(w, coupling * dpsi[:-1],
                                            coupling * dpsi[1:]), -res)
        lam = 1.0
        for _ in range(40):
            trial = mu + lam * delta
            if np.all(trial > 0.0):
                trial_res = residual(trial)
                if np.max(np.abs(trial_res)) < norm:
                    mu, res = trial, trial_res
                    break
            lam *= 0.5
        else:
            raise pde.SolverError("fast-diffusion Newton line search stalled")
    if np.max(np.abs(res)) <= 10.0 * tol:
        return mu
    raise pde.SolverError("fast-diffusion Newton did not converge")


def _ref_quantile_free_energy(functional, x):
    m = x.size
    dq = 1.0 / m
    d = np.maximum(np.diff(x), jko.INCREMENT_FLOOR)
    value = -dq * float(np.sum(np.log(d / dq)))
    if functional.confined:
        value += dq * float(np.sum(0.5 * x**2))
    return value


def _ref_objective(functional, x, x_prev, tau):
    dq = 1.0 / x.size
    prox = 0.5 * dq * float(np.sum((x - x_prev) ** 2)) / tau
    return _ref_quantile_free_energy(functional, x) + prox


def _ref_grad_hess(functional, x, x_prev, tau):
    m = x.size
    dq = 1.0 / m
    d = np.maximum(np.diff(x), jko.INCREMENT_FLOOR)
    inv = 1.0 / d
    grad = np.zeros(m)
    grad[1:] -= dq * inv
    grad[:-1] += dq * inv
    cross = dq * inv**2
    bands = _ref_flux_bands(np.zeros(m), cross, cross)
    if functional.confined:
        grad += dq * x
        bands[1] += dq
    grad += dq * (x - x_prev) / tau
    bands[1] += dq / tau
    return grad, bands


def _ref_jko_step_quantiles(functional, x_prev, tau):
    x = x_prev.copy()
    obj = _ref_objective(functional, x, x_prev, tau)
    floor = min(jko.INCREMENT_FLOOR, float(np.min(np.diff(x_prev))))
    iters = 0
    for iters in range(1, jko.MAX_INNER + 1):
        grad, bands = _ref_grad_hess(functional, x, x_prev, tau)
        delta = _ref_solves(bands, -grad)
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
        step = float(np.max(np.abs(lam * delta)))
        if not improved and step <= 1e-11 * max(1.0, float(np.max(np.abs(x)))):
            break
    stay = _ref_objective(functional, x_prev, x_prev, tau)
    if obj > stay + 1e-12 * max(1.0, abs(stay)):
        raise RuntimeError("proximal objective increased over the stay-put "
                           "candidate; inner solver bug")
    return x, iters


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
    for _ in range(20):
        try:
            mu_ref = _ref_fd_newton_step(grid, dt, mu_ref)
        except pde.SolverError as err:
            with pytest.raises(pde.SolverError, match=str(err)):
                pde._fd_newton_step(grid, dt, mu)
            break
        mu = pde._fd_newton_step(grid, dt, mu)
        assert np.array_equal(mu, mu_ref)
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
@pytest.mark.parametrize("kind", ["boltzmann_entropy", "fp_free_energy"])
def test_jko_step_is_reference_bitwise(kind, m, tau, solves):
    functional = fp_free_energy() if kind == "fp_free_energy" else boltzmann_entropy()
    x = x_ref = _jko_start(m)
    for _ in range(3):
        x, iters = jko._jko_step_quantiles(functional, x, tau)
        x_ref, iters_ref = _ref_jko_step_quantiles(functional, x_ref, tau)
        assert np.array_equal(x, x_ref)
        assert iters == iters_ref
        assert solves.calls == _ref_solves.calls


def test_jko_step_from_tied_start_is_reference_bitwise(solves):
    functional = boltzmann_entropy()
    tau = 1.0
    start = _jko_start(1024, tied=True)
    assert np.min(np.diff(start)) == 0.0
    x, iters = jko._jko_step_quantiles(functional, start, tau)
    x_ref, iters_ref = _ref_jko_step_quantiles(functional, start, tau)
    assert np.array_equal(x, x_ref)
    assert iters == iters_ref
    assert solves.calls == _ref_solves.calls
    assert not np.array_equal(x, start)
