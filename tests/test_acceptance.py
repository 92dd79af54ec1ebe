"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math

import numpy as np
import pytest

from entroflow.banks import run_inequality_bank
from entroflow.finite_flow import (
    DECAY_TOL,
    eep_inequality_check,
    integrate_flow,
    production_decay_check,
    quadratic_potential,
)
from entroflow.functionals import (
    boltzmann_entropy,
    fd_free_energy,
    fp_free_energy,
)
from entroflow.grids import (
    DensityTrajectory,
    gaussian_density,
    integrate,
    make_uniform_grid,
    normalize,
    staggered_radial_grid,
)
from entroflow.inequalities import (
    HypothesisViolation,
    ZugmeyerProblem,
    lsi_check,
    xlogx,
    zugmeyer_check,
)
from entroflow.jko import jko_trajectory
from entroflow.pde import solve, stationary_fd
from entroflow.transport import w2_1d
from oracles import (
    brute_force_w2_atoms,
    de_bruijn_pde_check,
    mccann_geodesic,
    monotone_w2_atoms,
    path_action,
    trajectory_report,
)

# every PDE trajectory produced by the acceptance runs, for criterion 10
PDE_RUNS = {}


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def heat_run():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    traj = solve(boltzmann_entropy(), gaussian_density(grid), 1e-4, 0.5,
                 snapshot_every=100)
    PDE_RUNS["heat"] = traj
    return traj


@pytest.fixture(scope="module")
def fp_run():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    traj = solve(fp_free_energy(), gaussian_density(grid, mean=2.0), 1e-3, 2.0,
                 snapshot_every=50)
    PDE_RUNS["fokker_planck"] = traj
    return traj


@pytest.fixture(scope="module")
def fd_bundle():
    grid = staggered_radial_grid(10.0, 512, 3)
    with pytest.warns(UserWarning):
        stationary = stationary_fd(grid)
    fixed = solve(fd_free_energy(), stationary, 1e-3, 5e-3)
    bump = 1.0 + 0.05 * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    perturbed = solve(fd_free_energy(), normalize(stationary.values * bump, grid),
                      2e-3, 3.0, snapshot_every=50)
    PDE_RUNS["fast_diffusion_fixed_point"] = fixed
    PDE_RUNS["fast_diffusion_perturbed"] = perturbed
    return grid, stationary, fixed, perturbed


@pytest.fixture(scope="module")
def jko_bundle():
    grid = make_uniform_grid(-8.0, 8.0, 1025)
    mu0 = gaussian_density(grid, mean=1.0)
    horizon = 0.96
    ref = solve(fp_free_energy(), mu0, 1e-3, horizon, snapshot_every=20)
    PDE_RUNS["jko_reference_fp"] = ref
    ref_at = {round(float(t), 6): s for t, s in zip(ref.times, ref.states)}
    functional = fp_free_energy()
    runs = {}
    for tau in (0.08, 0.04, 0.02):
        runs[tau] = jko_trajectory(functional, mu0, tau,
                                   int(round(horizon / tau)), 2048)
    return grid, ref_at, runs


def test_criterion_1_finite_dimensional_equality_case():
    spec = quadratic_potential()
    x0 = np.array([1.0, 0.0])
    lhs, rhs = eep_inequality_check(spec, x0)
    eep_ok = abs(lhs - rhs) <= 1e-9
    traj = integrate_flow(spec, x0, dt=1e-3, horizon=1.0)
    ratio = production_decay_check(spec, traj)
    ratio_ok = abs(ratio - 1.0) <= 1e-6 and ratio <= 1.0 + DECAY_TOL
    exact = np.exp(-traj.times)[:, None] * x0[None, :]
    flow_ok = float(np.max(np.abs(traj.states - exact))) <= 1e-9
    report(1, eep_ok and ratio_ok and flow_ok,
           "quadratic potential: energy-production equality, decay ratio 1, "
           "flow = exp(-t) x")


def test_criterion_2_de_bruijn_along_heat_flow(heat_run):
    residual = de_bruijn_pde_check(heat_run)
    ent = boltzmann_entropy()
    window = [(t, s) for t, s in zip(heat_run.times, heat_run.states)
              if 0.05 <= t <= 0.5]
    fisher_ok = all(abs(ent.production(s) - 1.0 / (1.0 + 2.0 * t)) <= 1e-3
                    for t, s in window)
    values = np.array([ent.value(s) for s in heat_run.states])
    dent = (values[2:] - values[:-2]) / (heat_run.times[2] - heat_run.times[0])
    slope_ok = all(abs(d + 1.0 / (1.0 + 2.0 * t)) <= 1e-3
                   for d, t in zip(dent, heat_run.times[1:-1])
                   if 0.05 <= t <= 0.5)
    report(2, residual <= 1e-3 and fisher_ok and slope_ok,
           f"heat-flow de Bruijn residual {residual:.2e} <= 1e-3, both sides "
           "equal -1/sigma^2(t)")


def test_criterion_3_fokker_planck_decay_rates(fp_run):
    grid = fp_run.states[0].grid
    rep = trajectory_report(fp_run, fp_free_energy(), gaussian_density(grid))
    ok = (rep.fitted_production_rate is not None
          and abs(rep.fitted_production_rate - 2.0) <= 0.1
          and rep.fitted_value_rate is not None
          and abs(rep.fitted_value_rate - 2.0) <= 0.1)
    report(3, ok, f"FP from N(2,1): production rate "
                  f"{rep.fitted_production_rate:.4f}, energy-excess rate "
                  f"{rep.fitted_value_rate:.4f}, both 2.0 +- 5%")


def test_criterion_4_log_sobolev_bank():
    rows = run_inequality_bank("lsi", seed=7, count=200)
    bank_ok = all(r.passed for r in rows) and len(rows) == 200
    grid = make_uniform_grid(-8.0, 8.0, 2049)
    lhs, rhs = lsi_check(np.exp(0.7 * grid.nodes), grid)
    extremal_ok = 0.999 <= lhs / rhs <= 1.0
    report(4, bank_ok and extremal_ok,
           f"log-Sobolev: 200-case bank clean, extremal ratio {lhs / rhs:.6f} "
           "in [0.999, 1]")


def test_criterion_5_optimal_sobolev_saturation():
    # the bank's grid: n = 3, R = 200, N = 20000
    rows = run_inequality_bank("sobolev", seed=7, count=50)
    extremal = [r for r in rows if r.case_id.endswith("extremal")]
    randoms = [r for r in rows if not r.case_id.endswith("extremal")]
    ok = (len(randoms) == 50 and all(r.passed for r in rows)
          and len(extremal) == 1 and extremal[0].passed)
    report(5, ok, "optimal Sobolev (n=3, R=200, N=20000): extremal saturates "
                  "to 0.5%, 50 random radial functions below the constant")


def test_criterion_6_fast_diffusion(fd_bundle):
    grid, stationary, fixed, perturbed = fd_bundle
    residual = max(integrate(np.abs(s.values - stationary.values), grid)
                   for s in fixed.states)
    fixed_ok = residual <= 1e-6
    rep = trajectory_report(perturbed, fd_free_energy(), stationary)
    rate_ok = (rep.fitted_value_rate is not None
               and rep.fitted_value_rate >= 2.0 * (2.0 / 3.0) * 0.95)
    rows = run_inequality_bank("eep_fd", seed=7, count=200)   # on fd_bundle's grid
    bank_ok = all(r.passed for r in rows) and len(rows) == 200
    report(6, fixed_ok and rate_ok and bank_ok,
           f"fast diffusion n=3: fixed-point residual {residual:.2e}, "
           f"energy-excess rate {rep.fitted_value_rate:.4f} >= 1.2667, "
           "200-case energy-production bank clean")


def test_criterion_7_wasserstein_oracles():
    grid = make_uniform_grid(-8.0, 8.0, 4097)
    m = 16384
    mu = gaussian_density(grid, 0.0, 1.0)
    nu = gaussian_density(grid, 1.0, 1.5)
    w = w2_1d(mu, nu, m)
    gauss_ok = abs(w - math.sqrt(1.0 + 0.25)) <= 1e-4

    rng = np.random.default_rng(42)
    atoms_ok = True
    for _ in range(3):
        x = rng.normal(size=8)
        y = rng.normal(loc=0.7, size=8)
        atoms_ok &= abs(brute_force_w2_atoms(x, y)
                        - monotone_w2_atoms(x, y)) <= 1e-12

    speed_ok = True
    for s, sp in ((0.0, 0.5), (0.25, 0.75), (0.3, 1.0)):
        d = w2_1d(mccann_geodesic(mu, nu, s, m),
                  mccann_geodesic(mu, nu, sp, m), m)
        speed_ok &= abs(d - abs(sp - s) * w) <= 1e-4

    times = np.linspace(0.0, 1.0, 33)
    action = path_action(DensityTrajectory(
        times, [mccann_geodesic(mu, nu, s, m) for s in times]))
    action_ok = abs(action - w**2) <= 0.02 * w**2
    report(7, gauss_ok and atoms_ok and speed_ok and action_ok,
           "W2 closed form 1e-4, 8-atom brute force = monotone coupling "
           "1e-12, constant speed 1e-4, geodesic action = W2^2 +- 2%")


def test_criterion_8_jko_consistency(jko_bundle):
    grid, ref_at, runs = jko_bundle
    gaps = {}
    monotone_ok = True
    for tau, traj in runs.items():
        gap = 0.0
        for t, state in zip(traj.times, traj.states):
            key = round(float(t), 6)
            if key in ref_at and key > 0:
                gap = max(gap, integrate(np.abs(state.values
                                                - ref_at[key].values), grid))
        gaps[tau] = gap
        energies = [row["F"] for row in traj.metadata["steps"]]
        monotone_ok &= all(b <= a + 1e-9
                           for a, b in zip(energies, energies[1:]))
    decreasing = gaps[0.08] > gaps[0.04] > gaps[0.02]
    small = gaps[0.02] <= 0.02
    report(8, decreasing and small and monotone_ok,
           f"JKO vs FP solver gaps {gaps[0.08]:.4f} > {gaps[0.04]:.4f} > "
           f"{gaps[0.02]:.4f} <= 0.02, energy monotone with zero exceptions")


def test_criterion_9_zugmeyer_bank_and_refusal():
    rows = run_inequality_bank("zugmeyer", seed=7, count=200)
    bank_ok = all(r.passed for r in rows) and len(rows) == 200

    grid = make_uniform_grid(0.0, 1.0, 257)
    h, psi = xlogx()
    v = np.exp(-0.5 * (grid.nodes - 0.5) ** 2)
    v = v / integrate(v, grid)
    inflated = ZugmeyerProblem(h, psi, grid, v, c=2.0)  # true constant is 1
    try:
        zugmeyer_check(inflated, v.copy())
        refused = False
        diagnostic = ""
    except HypothesisViolation as err:
        refused = True
        diagnostic = str(err)
    report(9, bank_ok and refused and "VIOLATED" in diagnostic,
           "Zugmeyer: 200-case bank clean; inflated C refused with a "
           "hypothesis diagnostic, never silently checked")


def test_criterion_10_conservation_positivity_monotonicity(
        heat_run, fp_run, fd_bundle, jko_bundle):
    mass_ok = positivity_ok = True
    n_snapshots = 0
    for traj in PDE_RUNS.values():
        for state in traj.states:
            n_snapshots += 1
            mass_ok &= abs(state.mass - 1.0) <= 1e-8
            positivity_ok &= bool(np.all(state.values > 0.0))

    monotone_ok = True
    for value in (boltzmann_entropy().value,
                  lambda s: integrate(s.values**2, s.grid),
                  lambda s: integrate(s.values**3, s.grid)):
        vals = np.array([value(s) for s in heat_run.states])
        monotone_ok &= bool(np.all(np.diff(vals) <= 1e-10
                                   * max(1.0, np.max(np.abs(vals)))))
    report(10, mass_ok and positivity_ok and monotone_ok,
           f"{n_snapshots} PDE snapshots: |mass-1| <= 1e-8, strictly "
           "positive; entropy and L^p (p=2,3) nonincreasing along heat flow")
