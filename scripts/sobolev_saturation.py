#!/usr/bin/env python3
"""Optimal Sobolev saturation experiment (n = 3, radial).

Prints lhs / rhs = ||f||_6 / (C_opt ||grad f||_2) for the saturating
inverse-power profile and for a bank of random radial bumps; everything
must sit at or below 1.
"""

import argparse

from entroflow.banks import sobolev_bank
from entroflow.grids import staggered_radial_grid
from entroflow.inequalities import (
    aubin_talenti_extremal,
    sobolev_check,
    sobolev_optimal_constant,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=200.0)
    ap.add_argument("--cells", type=int, default=20000)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    grid = staggered_radial_grid(args.radius, args.cells, 3)
    print(f"optimal constant (closed form): {sobolev_optimal_constant(3):.8f}")
    lhs, rhs = sobolev_check(aubin_talenti_extremal(grid), grid)
    print(f"extremal lhs / rhs: {lhs / rhs:.6f}")
    print(f"\n{'case':>16} {'lhs / rhs':>18}")
    for case_id, f in sobolev_bank(grid, args.count, args.seed)[1:]:
        lhs, rhs = sobolev_check(f, grid)
        print(f"{case_id:>16} {lhs / rhs:18.6f}")


if __name__ == "__main__":
    main()
