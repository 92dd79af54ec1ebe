"""Entropy-dissipating gradient flows and their functional inequalities.

Numerical substrate (grids), free-energy functionals with their Otto
gradients and production, finite-dimensional flow diagnostics, implicit
solvers for the heat / Fokker-Planck / fast-diffusion flows, the exact W2
distance on the line, JKO minimizing-movement stepping, and one-sided
checkers for the log-Sobolev, optimal Sobolev, energy-production and
convex-domain (Zugmeyer) inequalities.  Import each from its module:
``entroflow.grids``, ``functionals``, ``finite_flow``, ``pde``,
``transport``, ``jko``, ``inequalities`` and ``banks``; ``entroflow.cli``
runs them as commands.
"""

__version__ = "0.1.0"
