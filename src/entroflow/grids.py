"""Uniform grids, discrete densities and the quadrature/differentiation kernels.

Conventions used throughout the package:

* grids are uniform and node centered, nodes strictly increasing;
* ``geometry="line"`` integrates against the Lebesgue measure dx on an
  interval;
* ``geometry="radial"`` represents a radially symmetric function on R^n by
  its profile f(r); integration carries the sphere factor
  omega_n r^(n-1) with omega_n = 2 pi^(n/2) / Gamma(n/2);
* quadrature is the composite trapezoid rule (second order, exact on affine
  functions over line grids).  The quadrature weights double as
  finite-volume cell measures, so the PDE solvers conserve exactly the mass
  that :func:`integrate` reports;
* densities are clamped at ``DENSITY_FLOOR`` inside logarithms only, never
  in mass accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

# Clamp for log/negative-power evaluation only.
DENSITY_FLOOR = 1e-300

# Truncation boxes standing in for R^n; configurable, not hard-coded in ops.
DEFAULT_LINE_DOMAIN = (-8.0, 8.0)
DEFAULT_RADIUS = 10.0

LINE = "line"
RADIAL = "radial"


def fmt_float(x: float) -> str:
    """Format with 17 significant digits (round-trips float64 in CSV)."""
    return format(float(x), ".17g")


def write_csv(path, header: str, row_format: str, rows) -> None:
    """Write ``header`` and one ``row_format % row`` line per row tuple.

    Float fields use ``%.17g``, the same digits as :func:`fmt_float`; other
    fields use ``%s``.
    """
    lines = [header, *(row_format % row for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 for dim=1, 4*pi for dim=3)."""
    try:
        return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    except OverflowError:   # Gamma(dim / 2) from dim 344 on
        raise ValueError(f"the unit sphere area of R^{dim} overflows") from None


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform 1D grid, either an interval (line) or a radial profile in R^n."""

    nodes: np.ndarray
    spacing: float
    ambient_dim: int = 1
    geometry: str = LINE
    quad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid requires a 1d array with at least two nodes")
        diffs = np.diff(nodes)
        if np.any(diffs <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.spacing <= 0.0:
            raise ValueError("grid spacing must be positive")
        if not np.allclose(diffs, self.spacing, rtol=1e-10, atol=1e-12 * self.spacing):
            raise ValueError("grid nodes must be uniformly spaced")
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if self.geometry not in (LINE, RADIAL):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.geometry == RADIAL and nodes[0] < 0.0:
            raise ValueError("radial grids require nonnegative nodes")

        weights = np.full(nodes.size, self.spacing)
        weights[0] = weights[-1] = 0.5 * self.spacing
        if self.geometry == RADIAL:
            with np.errstate(over="ignore"):
                weights *= sphere_area(self.ambient_dim) * nodes ** (self.ambient_dim - 1)
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"grid weights overflow in dimension {self.ambient_dim}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quad_weights", weights)

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def is_radial(self) -> bool:
        return self.geometry == RADIAL

    @cached_property
    def face_areas(self) -> np.ndarray:
        """omega_n r^(n-1) at the cell faces r = (r_i + r_{i+1}) / 2 between
        consecutive nodes; built at the first use on this grid."""
        faces = 0.5 * (self.nodes[1:] + self.nodes[:-1])
        areas = sphere_area(self.ambient_dim) * faces ** (self.ambient_dim - 1)
        areas.setflags(write=False)
        return areas

    @cached_property
    def harmonic_potential(self) -> np.ndarray:
        """The confining potential r^2 / 2 at the nodes; built at the first
        use on this grid."""
        potential = 0.5 * self.nodes**2
        potential.setflags(write=False)
        return potential

    @cached_property
    def csv_template(self) -> str:
        """Density CSV text with the header and node column filled in and a
        ``%.17g`` slot per value; built at the first write on this grid."""
        coord = "r" if self.is_radial else "x"
        return f"{coord},value\n" + "".join(
            [fmt_float(x) + ",%.17g\n" for x in self.nodes.tolist()])


def make_uniform_grid(a: float, b: float, num_nodes: int) -> Grid:
    """Uniform line grid of ``num_nodes`` nodes on [a, b]."""
    if a >= b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if num_nodes < 8:
        raise ValueError(f"need at least 8 nodes, got {num_nodes}")
    spacing = (b - a) / (num_nodes - 1)
    nodes = a + spacing * np.arange(num_nodes)
    return Grid(nodes, spacing)


def staggered_radial_grid(radius: float, num_cells: int, ambient_dim: int) -> Grid:
    """Radial grid with nodes at cell centers (i+1/2)h, h = radius/num_cells.

    The first node sits at h/2, so 1/r factors never divide by zero.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if num_cells < 8:
        raise ValueError(f"need at least 8 cells, got {num_cells}")
    h = radius / num_cells
    nodes = (np.arange(num_cells) + 0.5) * h
    return Grid(nodes, h, ambient_dim, RADIAL)


def integrate(samples, grid: Grid) -> float:
    """Trapezoid quadrature of grid samples, radial weight included."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ValueError(f"sample length {samples.shape} does not match grid "
                         f"{grid.nodes.shape}")
    return float(samples @ grid.quad_weights)


def gradient_fd(samples, grid: Grid) -> np.ndarray:
    """First derivative: central differences inside, one-sided O(h^2) at ends."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ValueError("sample length does not match grid")
    if samples.size < 3:
        raise ValueError("need at least 3 samples to differentiate")
    return np.gradient(samples, grid.spacing, edge_order=2)


def second_derivative_fd(samples, grid: Grid) -> np.ndarray:
    """Second derivative, O(h^2) everywhere (exact on quadratics)."""
    f = np.asarray(samples, dtype=float)
    if f.shape != grid.nodes.shape:
        raise ValueError("sample length does not match grid")
    if f.size < 4:
        raise ValueError("need at least 4 samples for a second derivative")
    h2 = grid.spacing ** 2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative density per unit (Lebesgue or radial) measure on a grid."""

    grid: Grid
    values: np.ndarray
    mass: float = field(init=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("density length does not match grid")
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        mass = integrate(values, self.grid)
        if not mass > 0.0:
            raise ValueError("density has zero mass")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mass", mass)


def normalize(samples, grid: Grid) -> GridDensity:
    """Scale nonnegative samples to unit mass under the grid quadrature."""
    samples = np.asarray(samples, dtype=float)
    if np.any(samples < 0.0):
        raise ValueError("cannot normalize samples with negative entries")
    mass = integrate(samples, grid)
    if mass < np.finfo(float).tiny and samples.max() > 0.0:
        # subnormal samples: their products with the weights underflow or lose digits
        samples = samples / samples.max()
        mass = integrate(samples, grid)
    if not mass > 0.0:
        raise ValueError("cannot normalize an all-zero sample array")
    return GridDensity(grid, samples / mass)


def gaussian_density(grid: Grid, mean: float = 0.0, sigma: float = 1.0) -> GridDensity:
    """Normalized Gaussian profile exp(-(x-mean)^2 / (2 sigma^2)) on the grid."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    profile = np.exp(-0.5 * ((grid.nodes - mean) / sigma) ** 2)
    return normalize(profile, grid)


@dataclass(frozen=True, eq=False)
class TangentField:
    """Samples of a gradient field (Phi' in 1D/radial coordinates)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("field length does not match grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def midpoint_q_nodes(num_quantiles: int) -> np.ndarray:
    return (np.arange(num_quantiles) + 0.5) / num_quantiles


def cumulative_cdf(density: GridDensity) -> np.ndarray:
    """Cumulative trapezoid of the density; CDF values at the grid nodes."""
    v = density.values
    h = density.grid.spacing
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))))
    return cdf


def cdf_and_quantile(density: GridDensity, num_quantiles: int) -> np.ndarray:
    """Quantile function of a line density on the uniform midpoint q-grid
    ``midpoint_q_nodes(num_quantiles)``.

    The CDF is assembled by cumulative trapezoid and inverted by monotone
    piecewise-linear interpolation.  Values are nondecreasing by
    construction.
    """
    if density.grid.is_radial:
        raise ValueError("quantile transform is for line densities; use the "
                         "radial profile route for radial geometry")
    if num_quantiles < 8:
        raise ValueError("need at least 8 quantile nodes")
    cdf = cumulative_cdf(density)
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("zero-mass density has no quantile function")
    q = midpoint_q_nodes(num_quantiles)
    x = np.interp(q, cdf / total, density.grid.nodes)
    return np.maximum.accumulate(x)


def density_from_quantile(x, grid: Grid) -> GridDensity:
    """Density on the grid whose quantile function takes the nondecreasing
    values ``x`` on ``midpoint_q_nodes(x.size)``.

    Differentiates the interpolated inverse (the CDF) with the shared FD
    stencils; L1 error is O(1/M + h).
    """
    if grid.is_radial:
        raise ValueError("quantile representation targets line grids")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("quantile values need a 1d array of >= 8 nodes")
    if np.any(np.diff(x) < 0.0):
        raise ValueError("quantile values must be nondecreasing")
    cdf = np.interp(grid.nodes, x, midpoint_q_nodes(x.size), left=0.0, right=1.0)
    values = np.clip(gradient_fd(cdf, grid), 0.0, None)
    return normalize(values, grid)


@dataclass(eq=False)
class DensityTrajectory:
    """Time-ordered density snapshots, times starting at 0."""

    times: np.ndarray
    states: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size != len(self.states):
            raise ValueError("one state per time required")
        if self.times.size == 0 or abs(self.times[0]) > 1e-15:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.states)


def write_density_csv(density: GridDensity, path) -> None:
    """CSV dump with header ``x,value`` (line) or ``r,value`` (radial)."""
    values = tuple(density.values.tolist())
    Path(path).write_text(density.grid.csv_template % values)


def read_density_csv(path, ambient_dim: int = 1) -> GridDensity:
    """Read a density written by :func:`write_density_csv`."""
    header, _, body = Path(path).read_text().strip().partition("\n")
    fields = header.strip().split(",")
    if len(fields) != 2 or fields[1] != "value" or fields[0] not in ("x", "r"):
        raise ValueError(f"unrecognized density CSV header: {header!r}")
    geometry = RADIAL if fields[0] == "r" else LINE
    # Every row is "node,value": a row with one or three fields would
    # otherwise shift every later row of the flat parse below.
    for row, line in enumerate(body.split("\n"), start=2):
        if line.count(",") != 1:
            raise ValueError(f"density CSV line {row} does not have two "
                             f"fields: {line!r}")
    tokens = body.replace("\n", ",").split(",")
    data = np.fromiter(map(float, tokens), float, len(tokens)).reshape(-1, 2)
    if data.shape[0] < 2:
        raise ValueError("density CSV needs at least two rows")
    nodes, values = data[:, 0], data[:, 1]
    spacing = float(nodes[1] - nodes[0])
    grid = Grid(nodes, spacing, ambient_dim, geometry)
    return GridDensity(grid, values)
