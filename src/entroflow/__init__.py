"""Entropy-dissipating gradient flows and their functional inequalities.

Numerical substrate (grids), free-energy functionals with Otto-calculus
gradients and Hessians, finite-dimensional flow diagnostics, implicit
solvers for the heat / Fokker-Planck / fast-diffusion flows, 1D optimal
transport and McCann geodesics, JKO minimizing-movement stepping, and
one-sided checkers for the log-Sobolev, optimal Sobolev, energy-production
and convex-domain (Zugmeyer) inequalities.
"""

from .finite_flow import (
    PotentialSpec,
    Trajectory,
    builtin_potential_bank,
    de_bruijn_residual,
    eep_inequality_check,
    entropy_decay_check,
    integrate_flow,
    production_decay_check,
)
from .functionals import (
    FreeEnergy,
    boltzmann_entropy,
    fd_free_energy,
    fp_free_energy,
    hessian_identity_check,
    lp_norm,
)
from .grids import (
    DensityTrajectory,
    Grid,
    GridDensity,
    TangentField,
    cdf_and_quantile,
    density_from_quantile,
    gaussian_density,
    gradient_fd,
    integrate,
    make_uniform_grid,
    normalize,
    read_density_csv,
    staggered_radial_grid,
    write_density_csv,
)
from .inequalities import (
    HypothesisViolation,
    ZugmeyerProblem,
    eep_check_fd,
    eep_check_fp,
    lsi_check,
    sobolev_check,
    sobolev_optimal_constant,
    zugmeyer_check,
)
from .jko import jko_trajectory
from .pde import (
    DissipationReport,
    de_bruijn_pde_check,
    dirac_like_density,
    dissipation_report,
    solve,
    stationary_fd,
    stationary_state,
)
from .transport import (
    continuity_velocity,
    geodesic_hj_residual,
    mccann_geodesic,
    mccann_path,
    otto_inner,
    path_action,
    w2_1d,
    w2_radial_profile,
)

__version__ = "0.1.0"
