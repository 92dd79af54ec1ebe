#!/usr/bin/env python3
"""Minimizing-movement consistency experiment.

Runs the JKO chain for the Fokker-Planck free energy at a sweep of step
sizes and prints the max-over-time L1 gap to the implicit finite-volume
solver; the gap should shrink roughly linearly in tau.
"""

import argparse

import numpy as np

from entroflow.functionals import fp_free_energy
from entroflow.grids import gaussian_density, integrate, make_uniform_grid
from entroflow.jko import jko_trajectory
from entroflow.pde import solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--taus", type=float, nargs="+", default=[0.08, 0.04, 0.02])
    ap.add_argument("--horizon", type=float, default=0.96)
    ap.add_argument("--quantiles", type=int, default=2048)
    ap.add_argument("--nodes", type=int, default=1025)
    args = ap.parse_args()

    grid = make_uniform_grid(-8.0, 8.0, args.nodes)
    mu0 = gaussian_density(grid, mean=1.0)
    functional = fp_free_energy()
    ref = solve(functional, mu0, 1e-3, args.horizon)
    ref_at = {round(float(t), 9): s for t, s in zip(ref.times, ref.states)}

    print(f"{'tau':>8} {'steps':>6} {'max L1 gap':>12}")
    for tau in args.taus:
        steps = int(round(args.horizon / tau))
        traj = jko_trajectory(functional, mu0, tau, steps, args.quantiles)
        gap = 0.0
        for t, state in zip(traj.times[1:], traj.states[1:]):
            ref_state = ref_at[round(float(t), 9)]
            gap = max(gap, integrate(np.abs(state.values - ref_state.values),
                                     grid))
        print(f"{tau:8.3f} {steps:6d} {gap:12.6f}")


if __name__ == "__main__":
    main()
