"""Mass-conservative, positivity-preserving solvers for the three flows.

Each flow is the Wasserstein gradient flow of its free energy in
``functionals.FLOWS``; ``solve`` takes that model and runs on the grid of
the initial density.

Heat and Fokker-Planck (line geometry)
    Implicit-in-time finite volume with exponential-fitting face weights
    (Chang-Cooper / Scharfetter-Gummel).  With drift potential V the face
    flux between nodes i, i+1 is

        J = [B(dV) mu_i - B(-dV) mu_{i+1}] / h,   B(z) = z / (e^z - 1),

    which vanishes exactly on the discretized Gibbs state mu ~ exp(-V):
    the discrete stationary state of the Fokker-Planck scheme is the
    discretized standard Gaussian.  Backward Euler with the resulting
    M-matrix is unconditionally stable and positivity preserving, and each
    of its columns keeps sum(w_i mu_i) (w = quadrature weights, used as
    cell measures).

    The face weights keep detailed balance, B(-z) / B(z) = e^z, so the step
    matrix A = I + dt M is self-adjoint in L^2(w e^V): the diagonal
    similarity T = sqrt(w) e^(V/2) (sqrt(w) for heat) makes S = T A T^-1
    symmetric positive definite, with A's diagonal and the off-diagonal
    -sqrt(A_{i,i+1} A_{i+1,i}).  ``solve`` factors S = L D L^T once
    (LAPACK dpttrf), steps y = T mu by its two substitutions (dpttrs) and
    forms mu = y / T only at snapshots.  L's off-diagonal is negative and
    D positive, so each substitution step adds a positive term to a
    positive one: the recurrences have no cancellation and keep y > 0.
    Mass is conserved to roundoff, not exactly: on heat the interior
    diagonal 1 + 2 dt / h^2 rounds alike on every row, so the mass drifts
    linearly with the step count (ROADMAP item 1).  For Fokker-Planck on
    [-L, L] the scale T spans e^(L^2 / 4), a finite double only for L
    below about 53.3; a wider domain is rejected.

Fast diffusion with confinement (radial geometry, n > 2)
    The flux is kept in gradient-flow form mu * d/dr(-mu^(-1/n) + r^2/2):
    the face mobility is lagged at the previous state while the potential
    is taken at the new state, and the resulting nonlinear system is solved
    by damped Newton.  Because the potential of mu_inf = (C + r^2/2)^(-n)
    is constant on the nodes, mu_inf is a fixed point of the scheme to
    solver tolerance.  Newton solves for increments e = P delta of the
    potential, P = mu^(-1/n-1)/n: the Jacobian W + K P (W the cell measures,
    K the Laplacian of the face couplings) becomes W P^-1 + K, symmetric
    positive definite (the lagged-mobility H^-1 metric of Otto, Comm. PDE
    26 (2001) 101), which LAPACK dptsv solves.

All boundaries are no-flux; the boundary flux is identically zero by
construction.  ``step_count`` judges a run's step ``dt`` and horizon.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .functionals import FLOWS, FreeEnergy
from .grids import (
    DensityTrajectory,
    Grid,
    GridDensity,
    gaussian_density,
    integrate,
    normalize,
    sphere_area,
    write_csv,
)

class SolverError(RuntimeError):
    pass


@functools.cache
def _extension(package: str, name: str):
    """scipy's compiled extension ``scipy.<package>.<name>``, found by
    ``PathFinder`` in scipy's folder and loaded without the package init (over
    80 modules for ``scipy.linalg``), or with no loadable file there imported
    from scipy.  It registers in ``sys.modules`` under the private name
    ``entroflow.<name>``: under scipy's own, a later scipy import would lack it."""
    try:
        folder = os.path.join(
            importlib.util.find_spec("scipy").submodule_search_locations[0], package)
        spec = importlib.machinery.PathFinder.find_spec(f"entroflow.{name}", [folder])
        module = importlib.util.module_from_spec(spec)   # a None spec: AttributeError
        spec.loader.exec_module(module)
    except (ImportError, AttributeError):
        module = importlib.import_module(f"scipy.{package}.{name}")
    return module


def _lapack():
    """scipy's LAPACK extension (``dptsv``, ``dpttrf``, ``dpttrs``)."""
    return _extension("linalg", "_flapack")


class SymmetrizedLDL:
    """LAPACK ``dpttrf`` factors of the symmetric form of a tridiagonal band
    array A whose off-diagonal pairs A_{i,i+1}, A_{i+1,i} have one sign, for
    repeated solves.

    The diagonal similarity ``scale`` = T, with T_{i+1} / T_i =
    sqrt(A_{i,i+1} / A_{i+1,i}) summed in log space and centered on 1,
    turns A into S = T A T^-1: A's diagonal and off-diagonal
    -sqrt(A_{i,i+1} A_{i+1,i}).  A detailed-balance operator has such a
    form: T is sqrt(w) e^(V/2) for the Fokker-Planck step and sqrt(w) for
    heat.  S is factored as L D L^T once; ``solve_banded`` solves S y = T b,
    whose solution is y = T x for A x = b.  A zero or mixed-sign
    off-diagonal pair and a scale whose largest over smallest value
    overflows a double raise ``ValueError``; an S that is not positive
    definite raises ``SolverError``.
    """

    def __init__(self, ab: np.ndarray):
        upper, lower = ab[0, 1:], ab[2, :-1]
        coupling = upper * lower
        if not np.all(coupling > 0.0):
            raise ValueError("the band has no symmetric form: an off-diagonal "
                             "is zero or the pair differs in sign")
        log_scale = np.zeros(ab.shape[1])
        np.cumsum(0.5 * np.log(upper / lower), out=log_scale[1:])
        high, low = log_scale.max(), log_scale.min()
        if not high - low <= np.log(np.finfo(float).max):
            raise ValueError(f"the symmetrizing scale spans e^{high - low:.6g}, "
                             f"beyond the double range")
        self.scale = np.exp(log_scale - 0.5 * (high + low))
        *self.factors, info = _lapack().dpttrf(ab[1], -np.sqrt(coupling))
        if info != 0:
            raise SolverError(f"dpttrf failed with info={info}")


def solve_banded(ab, b):
    """Solve a symmetric positive-definite tridiagonal system by LAPACK
    ``dptsv``, consuming ``ab`` and writing the solution over ``b``; ``ab``
    may also be a :class:`SymmetrizedLDL`, whose ``dpttrs`` substitutions
    then solve the symmetric form for ``b`` = T b_A, in place.

    ``ab`` is a (2, n) band array in the upper form of scipy's
    ``solveh_banded`` (off-diagonal in ``ab[0, 1:]``, diagonal in ``ab[1]``),
    which runs ``dptsv`` for such bands: the result is the same bit for bit,
    without that wrapper's validation and copies.  A band that is not
    positive definite raises ``SolverError`` with the row ``info``.

    LAPACK comes from ``_lapack``, which loads scipy's extension file at the
    first banded solve without importing the ``scipy.linalg`` package, so
    no command imports that package and commands that never solve a banded
    system (w2, check, diagnose) load no LAPACK file.
    """
    if isinstance(ab, SymmetrizedLDL):   # dpttrs fails only on bad arguments
        return _lapack().dpttrs(*ab.factors, b, overwrite_b=1)[0]
    *_, x, info = _lapack().dptsv(ab[1], ab[0, 1:], b, 1, 1, 1)
    if info != 0:
        raise SolverError(f"dptsv failed with info={info}")
    return x


def step_count(horizon: float, dt: float) -> int:
    """Number of steps of size ``dt`` that end at ``horizon``.

    A horizon off the time grid raises ``ValueError`` instead of being
    rounded to the nearest step, and so does a non-finite horizon or step, a
    step that is not positive and a horizon of more than ``MAX_STEPS`` steps.
    The relative tolerance admits multiples up to roundoff, such as
    ``steps * tau`` with ``dt = tau / per_step``.
    """
    if not (np.isfinite(horizon) and np.isfinite(dt)):
        raise ValueError(f"horizon {horizon} and dt {dt} must be finite")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError(f"horizon {horizon} shorter than dt {dt}")
    if horizon / dt > MAX_STEPS:
        raise ValueError(f"horizon {horizon} takes more than {MAX_STEPS} "
                         f"steps of dt {dt}")
    steps = round(horizon / dt)
    if abs(steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon} is not a multiple of dt {dt}")
    return steps


MAX_STEPS = 10**8        # step-count ceiling of a run, far above any real one
NEWTON_TOL = 1e-12       # fast-diffusion residual tolerance, relative to max(w mu)
NEWTON_MAX_ITER = 40
BOUND_TOL = 0.05         # dissipation-bound slack for the O(dt) bias of implicit steps
BRENT_XTOL = 1e-14       # Brent's bracket tolerances for the stationary constant;
BRENT_RTOL = 8.9e-16     # rtol just above 4 eps, the least scipy's brentq takes


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), stable near 0.  For z above about 709 e^z - 1
    overflows to inf, and B = z / inf = 0 is the correct value."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-10
    out[small] = 1.0 - 0.5 * z[small]
    zs = z[~small]
    with np.errstate(over="ignore"):
        out[~small] = zs / np.expm1(zs)
    return out


def flux_bands(left, right, row_scale) -> np.ndarray:
    """``[upper, diag, lower]`` band array of the tridiagonal operator

        u -> u + row_scale (J_{i+1/2} - J_{i-1/2}),

    the backward-Euler matrix I + dt M of the linear step, with face flux
    J_{i+1/2} = left_i u_i - right_i u_{i+1} on the n - 1 interior faces and
    no flux through the ends; ``row_scale`` is one factor per row (a step
    over the cell measure).  It never solves: every solve goes through
    ``solve_banded``, whose calls ``perfbench/traced_entry.py`` counts per caller.
    """
    upper, main, lower = bands = np.zeros((3, np.size(left) + 1))
    main[:] = 1.0
    main[:-1] += row_scale[:-1] * left
    main[1:] += row_scale[1:] * right
    upper[1:] = -(row_scale[:-1] * right)
    lower[:-1] = -(row_scale[1:] * left)
    return bands


def _linear_step_matrix(model: FreeEnergy, grid: Grid, dt: float) -> np.ndarray:
    """Banded backward-Euler matrix I + dt M for heat / Fokker-Planck, with
    (M mu)_i = (J_{i+1/2} - J_{i-1/2}) / w_i."""
    x = grid.nodes
    dv = 0.5 * (x[1:] ** 2 - x[:-1] ** 2) if model.confined else np.zeros(x.size - 1)
    # B(dV) weighs mu_i and B(-dV) mu_{i+1} in the face flux J_{i+1/2}
    return flux_bands(_bernoulli(dv), _bernoulli(-dv),
                      dt / (grid.quad_weights * grid.spacing))


def _fd_newton_step(grid: Grid, dt: float, mu_old: np.ndarray,
                    root_old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One backward-Euler step of the fast-diffusion flow by damped Newton.

    The residual w (mu - mu_old) - div(kappa c_face diff(psi)) and its
    root = mu^(-1/n) in psi = r^2/2 - root are formed in place, with the
    float operations of the plain expressions in the same order, so every
    iterate is reproducible bit for bit.  Newton solves (W P^-1 + K) e = -res
    for e = P delta: with 1/P = n mu / root, the diagonal is w / P + c_{i-1}
    + c_i and the off-diagonal -c_i (c = kappa c_face).

    ``root_old`` is mu_old^(-1/n), as the previous step's accepted residual
    formed it (``solve`` forms it once, for mu_0).  The step returns the new
    state with its root, so its only powers are its line-search trials'.
    """
    n = grid.ambient_dim
    w = grid.quad_weights
    potential = grid.harmonic_potential
    kappa = dt * (n - 1.0) / n
    mobility = 0.5 * (mu_old[1:] + mu_old[:-1])   # lagged
    cface = grid.face_areas * mobility / grid.spacing
    coupling = kappa * cface
    flux, psi = np.empty_like(cface), np.empty_like(mu_old)
    bands = np.empty((2, mu_old.size))

    def residual(mu, root):
        np.subtract(potential, root, out=psi)
        np.subtract(psi[1:], psi[:-1], out=flux)
        np.multiply(flux, cface, out=flux)
        np.multiply(flux, kappa, out=flux)
        res = mu - mu_old
        res *= w
        res[:-1] -= flux
        res[1:] += flux
        return res

    mu, root = mu_old, root_old
    tol = NEWTON_TOL * max((w * mu_old).max(), 1e-30)   # mu_old > 0
    res = residual(mu, root)
    norm = np.abs(res).max()
    for _ in range(NEWTON_MAX_ITER):
        if norm <= tol:
            return mu, root
        inverse_p = mu * n
        inverse_p /= root
        np.multiply(w, inverse_p, out=bands[1])
        bands[1, :-1] += coupling
        bands[1, 1:] += coupling
        np.negative(coupling, out=bands[0, 1:])
        delta = solve_banded(bands, np.negative(res, out=res))
        delta *= inverse_p
        lam, trial = 1.0, delta + mu   # delta * 1.0 == delta
        for _ in range(40):
            if trial.min() > 0.0:
                trial_root = trial ** (-1.0 / n)
                trial_res = residual(trial, trial_root)
                trial_norm = np.abs(trial_res).max()
                if trial_norm < norm:
                    mu, res, root, norm = trial, trial_res, trial_root, trial_norm
                    break
            lam *= 0.5
            trial = delta * lam
            trial += mu
        else:
            raise SolverError("fast-diffusion Newton line search stalled")
    if norm <= tol:
        return mu, root
    raise SolverError("fast-diffusion Newton did not converge")


def solve(model: FreeEnergy, mu0: GridDensity, dt: float, horizon: float,
          snapshot_every: int = 1, emit=None) -> DensityTrajectory | None:
    """Run the flow of ``model``, one of ``FLOWS``, from ``mu0`` on its grid
    in steps ``dt`` up to ``horizon``; snapshots every ``snapshot_every``
    steps plus the final state.  A model that is no flow, the wrong grid
    (geometry, n <= 2, inner cells with neither measure nor face area),
    ``snapshot_every`` < 1 or a dt and horizon that ``step_count`` rejects
    raise ``ValueError`` before the first snapshot.
    Each snapshot goes to ``emit(t, state)`` as it is made and is not kept,
    so memory stays O(N); without ``emit`` they are collected and returned."""
    grid = mu0.grid
    if model not in FLOWS.values():
        raise ValueError(f"{model} is not the free energy of a flow in FLOWS")
    steps = step_count(horizon, dt)
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    newton = model.power_law   # the power law steps by Newton on radial grids
    if grid.is_radial != newton or newton and grid.ambient_dim <= 2:
        raise ValueError("fast diffusion runs on radial grids with n > 2, "
                         "heat and Fokker-Planck on line grids")
    if newton and np.any((grid.quad_weights[:-1] == 0.0) & (grid.face_areas == 0.0)):
        raise ValueError(   # such a cell's Newton row is zero
            f"at dimension {grid.ambient_dim}, radius {grid.nodes[-1] + grid.spacing / 2:g} "
            f"and {grid.num_nodes} cells the inner cells have neither measure nor face "
            f"area in doubles: lower --dim or widen the cells, --radius / --N")
    if abs(mu0.mass - 1.0) > 1e-8:
        raise ValueError("initial density must have unit mass")
    if np.any(mu0.values <= 0.0):
        raise ValueError("initial density must be strictly positive")

    factors = None   # mu log mu flows step with one constant matrix: factor it once
    if not newton:
        try:
            factors = SymmetrizedLDL(_linear_step_matrix(model, grid, dt))
        except ValueError as err:
            raise ValueError(f"domain [{grid.nodes[0]:g}, {grid.nodes[-1]:g}] "
                             f"is too wide: {err}") from None

    times, states = [], []   # collected only without emit
    emit = emit or (lambda t, state: (times.append(t), states.append(state)))
    mu = mu0.values.copy()
    emit(0.0, GridDensity(grid, mu))
    if factors is not None:
        mu *= factors.scale   # the linear flows step y = T mu
    else:
        root = mu ** (-1.0 / grid.ambient_dim)   # each Newton step carries it on

    for k in range(1, steps + 1):
        if newton:
            mu, root = _fd_newton_step(grid, dt, mu, root)
        else:
            mu = solve_banded(factors, mu)
        if k % snapshot_every == 0 or k == steps:
            values = mu if newton else mu / factors.scale
            mass = integrate(values, grid)   # judged here: GridDensity would raise ValueError
            if not abs(mass - 1.0) <= 1e-8:
                raise SolverError(f"mass drifted to {mass} at step {k}")
            if np.any(values <= 0.0):
                raise SolverError(f"positivity lost at step {k}")
            emit(k * dt, GridDensity(grid, values))

    return DensityTrajectory(np.asarray(times), states) if states else None


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4): the
    compiled routine behind ``scipy.optimize.brentq``, so the root is the
    same bit for bit.  Converged when the bracket half-width drops below
    (BRENT_XTOL + BRENT_RTOL |x|) / 2 within scipy's default 100 iterations.
    """
    try:
        x, _, _, flag = _extension("optimize", "_zeros")._brentq(
            f, xa, xb, BRENT_XTOL, BRENT_RTOL, 100, (), True, False)
    except ValueError as err:   # f's own errors pass through unchanged
        if str(err) != "f(a) and f(b) must have different signs":
            raise
        raise SolverError("root is not bracketed") from None
    if flag != 0:
        raise SolverError("Brent's method did not converge in 100 iterations")
    return x


def _fd_tail_mass(ambient_dim: int, c: float, radius: float) -> float:
    """Continuum mass of (c + s^2/2)^(-n) beyond ``radius``.

    With t = R/s the tail is omega R^n int_0^1 t^(n-1) (c t^2 + R^2/2)^(-n)
    dt, a smooth integrand on a finite interval; 64-point Gauss-Legendre
    matches adaptive quadrature to ~1e-10 relative error.
    """
    from numpy.polynomial.legendre import leggauss   # 9 modules only this tail loads

    n = ambient_dim
    nodes, weights = leggauss(64)
    t = 0.5 * (nodes + 1.0)
    integrand = t ** (n - 1) * (c * t**2 + 0.5 * radius**2) ** (-n)
    return sphere_area(n) * radius**n * 0.5 * float(np.dot(weights, integrand))


def stationary_fd(grid: Grid) -> GridDensity:
    """Stationary state (C + r^2/2)^(-n) on the grid's R^n, of grid mass 1.

    C is located by Brent's method on the grid quadrature; the resulting
    density is exactly unit mass under ``integrate``.  If the continuum tail
    beyond the truncation radius exceeds 1e-6 the deficit is reported as a
    warning (the truncated state is still an exact fixed point of the
    discrete flow, whose flux potential is constant in r).
    """
    if not grid.is_radial:
        raise ValueError("stationary state lives on a radial grid")
    n = grid.ambient_dim
    if n <= 2:
        raise ValueError("fast diffusion requires n > 2")
    r = grid.nodes

    def grid_mass(c):
        return integrate((c + 0.5 * r**2) ** (-n), grid)

    lo, hi = 1e-8, 1.0
    while grid_mass(hi) > 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise SolverError("failed to bracket the normalization constant")
    # from n = 133 the first radial weights underflow where (lo + r^2/2)^(-n)
    # overflows, so the mass at lo = 1e-8 is nan: raise lo until it exceeds 1
    with np.errstate(over="ignore", invalid="ignore"):
        while not grid_mass(lo) > 1.0:
            lo *= 2.0
            if lo >= hi:
                raise ValueError(f"the stationary state of dimension {n} has no "
                                 f"finite grid mass above 1 for C in [1e-08, {hi:g}]")
    c = _brentq(lambda cc: grid_mass(cc) - 1.0, lo, hi)
    values = (c + 0.5 * r**2) ** (-n)
    zeros = np.count_nonzero(values == 0.0)
    if zeros:   # from n = 191 at the default radius and cells
        raise ValueError(f"the stationary state of dimension {n} underflows to 0 "
                         f"at {zeros} grid nodes")

    radius = r[-1] + 0.5 * grid.spacing
    tail = _fd_tail_mass(n, c, radius)
    if tail > 1e-6:
        warnings.warn(
            f"truncation radius {radius:g} leaves ~{tail:.2e} of the continuum "
            "stationary mass outside the grid", stacklevel=2)
    return GridDensity(grid, values)


def stationary_state(model: FreeEnergy, grid: Grid) -> GridDensity | None:
    """The minimizer of ``model`` on ``grid``, which its flow relaxes to:
    None without V, the standard Gaussian for the confined entropy and
    ``stationary_fd`` for the power law, whose truncation-tail warning is
    silenced here only (ROADMAP item 2's run record would capture it)."""
    if not model.confined:
        return None
    if not model.power_law:
        return gaussian_density(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stationary_fd(grid)


def dirac_like_density(grid: Grid) -> GridDensity:
    """Narrow Gaussian (sigma = 3h) at 0 standing in for a Dirac initial mass.

    The far field underflows for such a narrow profile, so a relative floor
    keeps the density strictly positive (mass contribution ~1e-288);
    dissipation diagnostics from such data only make sense for t > 0.
    """
    profile = np.exp(-0.5 * (grid.nodes / (3.0 * grid.spacing)) ** 2)
    return normalize(np.maximum(profile, 1e-290), grid)


@dataclass(eq=False)
class DissipationReport:
    """Per-snapshot Lyapunov value, production, and Bakry-Emery bound."""

    times: np.ndarray
    values: np.ndarray
    productions: np.ndarray
    bounds: np.ndarray
    fitted_production_rate: float | None
    fitted_value_rate: float | None
    production_bounded: bool
    value_monotone: bool

    @property
    def passed(self) -> bool:
        return self.production_bounded and self.value_monotone


def _fit_rate(times: np.ndarray, series: np.ndarray, floor: float) -> float | None:
    mask = series > floor
    if mask.sum() < 3:
        return None
    slope = np.polyfit(times[mask], np.log(series[mask]), 1)[0]
    return float(-slope)


def dissipation_report(functional: FreeEnergy, grid: Grid, times, values,
                       productions, minimizer: GridDensity | None):
    """Dissipation diagnostics of a flow on ``grid`` from its snapshot
    series of times, ``functional.value`` and ``functional.production``.

    The bound column is exp(-2 rho t) * production(mu_0), rho the
    functional's on ``grid``; the production may exceed it by ``BOUND_TOL``.
    Fitted decay rates come from log-linear regression of the production
    and, when a ``minimizer`` (unit mass) is given, of the value excess;
    flows without one (heat) pass None.
    """
    rho = functional.rho(grid)
    if minimizer is not None and abs(minimizer.mass - 1.0) > 1e-8:
        raise ValueError("minimizer must have unit mass")
    times, values, productions = map(np.asarray, (times, values, productions))
    bounds = np.exp(-2.0 * rho * (times - times[0])) * productions[0]

    scale = max(1.0, float(np.max(productions)))
    production_bounded = bool(np.all(productions <= bounds * (1.0 + BOUND_TOL)
                                     + 1e-12 * scale))
    vscale = max(1.0, float(np.max(np.abs(values))))
    value_monotone = bool(np.all(np.diff(values) <= 1e-10 * vscale))

    fitted_production_rate = _fit_rate(times, productions,
                                       max(1e-12, 1e-10 * scale))
    fitted_value_rate = None
    if minimizer is not None:
        excess = values - functional.value(minimizer)
        fitted_value_rate = _fit_rate(times, excess, max(1e-12, 1e-10 * vscale))

    return DissipationReport(times, values, productions, bounds,
                             fitted_production_rate, fitted_value_rate,
                             production_bounded, value_monotone)


def write_report_csv(report: DissipationReport, path) -> None:
    write_csv(path, "t,value,production,bound", np.column_stack(
        (report.times, report.values, report.productions, report.bounds)))
