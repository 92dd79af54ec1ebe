"""Independent oracles shared by the test modules."""

import itertools
import math

import numpy as np

from entroflow.pde import dissipation_report


def brute_force_w2_atoms(x, y):
    """Exact W2 between two k-atom uniform discrete measures by enumerating
    every assignment (k! permutations; keep k <= 8)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    assert x.size == y.size <= 8
    best = math.inf
    for perm in itertools.permutations(range(y.size)):
        cost = float(np.sum((x - y[list(perm)]) ** 2)) / x.size
        best = min(best, cost)
    return math.sqrt(best)


def monotone_w2_atoms(x, y):
    """Monotone-rearrangement cost: sort both supports and pair in order."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    return math.sqrt(float(np.mean((x - y) ** 2)))


def trajectory_report(traj, functional, minimizer=None):
    """``dissipation_report`` of a collected trajectory: the value and
    production of each of its states, at its time."""
    return dissipation_report(functional, traj.states[0].grid, traj.times,
                              [functional.value(s) for s in traj.states],
                              [functional.production(s) for s in traj.states],
                              minimizer)
