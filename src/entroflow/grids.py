"""Uniform grids, densities, quadrature/differentiation kernels and the CSV writer.

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
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


CSV_CHUNK = 4096   # values per pass of the '%.17g' kernel; bounds its memory


@cache
def _g17_tables() -> dict:
    """Tables of :func:`g17_words`, built at its first call: ``H + L`` at q
    is 10^q, q in [0, 300], as a double-double from exact integers;
    NUL-padded text words of 4-digit groups (in full, without leading zeros
    but keeping a lone 0, without trailing zeros); and at k + 301 for a
    decimal exponent k in [-301, 3], 10^(digits after the point), the point
    (with the zeros of 0.000ddd) and the 8-byte exponent, ending in a
    comma."""
    powers = [10**q for q in range(301)]
    high = [float(p) for p in powers]
    low = [float(p - int(h)) for p, h in zip(powers, high)]
    text = np.empty((10, 10, 10, 10, 4), np.uint8)   # the 4 digits of 0..9999
    digit = np.arange(48, 58, dtype=np.uint8)
    for j in range(4):
        text[..., j] = digit.reshape((1,) * j + (10,) + (1,) * (3 - j))
    text = text.reshape(10000, 4)
    words = text.view(np.uint32).ravel()
    first, last = (np.frombuffer(b"".join(pad(b"\xff" * m, 4, b"\0") for m in range(5)),
                                 np.uint32) for pad in (bytes.ljust, bytes.rjust))
    group, tens = np.arange(10000), [1, 10, 100, 1000]
    lead = np.searchsorted(tens, group, "right").clip(1)   # digits from the first nonzero one
    reverse = group.reshape((10,) * 4).T.ravel()   # each group's digits reversed
    trail = np.searchsorted(tens, reverse, "right")   # digits up to the last nonzero one
    k = np.arange(-301, 4)
    fixed, mag = k >= -4, np.abs(k)   # %g's k without an exponent
    exp = np.zeros((k.size, 8), np.uint8)   # NUL, e, -, 2 or 3 digits; a comma
    exp[:, 1], exp[:, 2] = ord("e"), ord("-")
    exp[mag >= 100, 3:6] = text[mag[mag >= 100], 1:]
    exp[mag < 100, 3:5] = text[mag[mag < 100], 2:]
    exp[fixed, 1:6] = 0
    exp[:, 7] = ord(",")
    return dict(
        H=np.array(high), L=np.array(low),
        digits=np.concatenate([words, words & last[lead], words & first[trail]]),
        shift=10 ** np.where(fixed, np.minimum(16 - k, 17), 16),
        dot=np.frombuffer(b".\0\0\0.0\0\0.00\0.000", np.uint32)[
            np.where(fixed & (k < 0), -k - 1, 0)],   # '.' and 0 to 3 zeros
        exp=exp.view(np.uint64).ravel())


def _g17_groups(n):
    """The four 4-digit groups of integers below 10^16, the first leading."""
    high = n // 10**8
    low = n - high * 10**8
    first, third = high // 10**4, low // 10**4
    return first, high - first * 10**4, third, low - third * 10**4


def g17_words(values: np.ndarray) -> np.ndarray:
    """``'%.17g,' % v`` of each value of a 1-d float64 array as a row of
    NUL-padded native-order uint32 words: the sign (if some value is
    negative), the integer part, '.' and the zeros of 0.000ddd, the fraction
    left aligned, the exponent and the comma.  With k = floor(log10 |v|),
    Dekker's exact two-product (Numer. Math. 18 (1971) 224) gives P = |v|
    10^(16-k) within about 1e-14: round(P) holds the 17 correctly rounded
    digits.  It formats 0 and 1e-280 <= |v| < 1e4, the range of the values
    the library writes; the rest, and values whose P lies within 1e-7 of a
    half-integer (a decimal tie), go to Python's ``%``."""
    tables = _g17_tables()
    a = np.abs(values)
    zero, ok = a == 0.0, (a >= 1e-280) & (a < 1e4)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a) - 1e-12).astype(np.int64)   # floor(log10 a), or 1 less
    h = tables["H"][16 - k]
    split_a, split_h = 134217729.0 * a, 134217729.0 * h   # 26-bit halves
    a_hi, h_hi = split_a - (split_a - a), split_h - (split_h - h)
    a_lo, h_lo, p = a - a_hi, h - h_hi, a * h
    p_low = ((((a_hi * h_hi - p) + a_hi * h_lo) + a_lo * h_hi) + a_lo * h_lo
             + a * tables["L"][16 - k])
    rounded = np.rint(p_low)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    fallback = (~(ok | zero) | (np.abs(np.abs(p_low - rounded) - 0.5) < 1e-7)
                | (digits > 10**17))   # k one less and a not a power of ten
    carry = digits == 10**17   # rounded up to the next decade
    k, digits = k + carry, digits - carry * 9 * 10**16
    digits[zero], k[zero] = 0, -1
    shift = tables["shift"][k + 301]
    whole = digits // shift   # the integer part; then the fraction's 17 digits
    frac = (digits - whole * shift) * (10**17 // shift)
    table, negative = tables["digits"], np.signbit(values)
    words = np.empty((9, values.size), np.uint32)   # word by word, for all rows
    words[0] = negative * np.frombuffer(b"-\0\0\0", "u4")[0]
    words[1] = table[whole + 10000]   # a lone 0 kept
    words[2] = tables["dot"][k + 301] * (frac > 0)
    high, last = frac // 10, frac % 10
    bare = last == 0   # nothing but zeros after the group written next
    for word, group in zip((6, 5, 4, 3), _g17_groups(high)[::-1]):
        words[word] = table[group + 20000 * bare]
        bare &= group == 0
    tail = tables["exp"][k + 301].view(np.uint32)
    words[7] = table[20000 + 1000 * last] | tail[0::2]
    words[8] = tail[1::2]
    if not negative.any():
        words = words[1:]
    for row in np.flatnonzero(fallback):
        text = (b"%.17g" % values[row]).ljust(4 * len(words) - 1, b"\0") + b","
        words[:, row] = np.frombuffer(text, np.uint32)
    return words.T


def _text_words(text: bytes) -> np.ndarray:
    """The comma-ended fields of ``text`` as rows of uint32 words, NUL padded
    and ended by a comma.  Each row is a window of the text at its field's
    start cut by a byte mask at the comma, so no field becomes a Python object."""
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    width = int(lengths.max()) // 4 * 4 + 4   # the text, NULs and a comma
    column = sliding_window_view(np.frombuffer(text + bytes(width), np.uint8),
                                 width)[starts]   # room for the last window
    keep = np.tri(width + 1, width, -1, np.uint8) * np.uint8(255)   # row m: m bytes
    words = column.view(np.uint32)
    words &= keep.view(np.uint32)[lengths]
    column[:, -1] = ord(",")
    return words


def text_column(strings) -> np.ndarray:
    """A text column of :func:`write_csv`: each string as a row of words."""
    return _text_words("".join(f"{s}," for s in strings).encode())


def write_csv(path, header: str, *columns) -> None:
    """Write ``header`` and a line per row of the ``columns``: text (the word
    rows of :func:`text_column` or :attr:`Grid.csv_nodes`) or floats (1-d, or
    2-d for adjacent columns) as ``'%.17g'``, :data:`CSV_CHUNK` values a pass."""
    columns = [c if getattr(c, "dtype", None) == np.uint32 else np.asarray(c, float)
               for c in columns]
    step = max(1, CSV_CHUNK // sum(c[0].size for c in columns if c.dtype == float))
    newline = np.bitwise_xor.reduce(np.frombuffer(b"\0\0\0,\0\0\0\n", "u4"))
    with open(path, "wb") as out:
        out.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), step):
            words = np.hstack([
                rows if rows.dtype == np.uint32 else g17_words(rows.ravel()).reshape(len(rows), -1)
                for rows in (c[start:start + step] for c in columns)])
            words[:, -1] ^= newline   # the comma ending each row becomes '\n'
            out.write(words.tobytes().translate(None, b"\0"))


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
    def csv_nodes(self) -> np.ndarray:
        """Each node's ``%.17g`` text, a text column of :func:`write_csv` cut
        from the kernel's NUL-free text: built at the first density write."""
        words = _text_words(b"".join(g17_words(self.nodes[start:start + CSV_CHUNK]).tobytes()
                                     for start in range(0, self.num_nodes, CSV_CHUNK)
                                     ).translate(None, b"\0"))
        words.setflags(write=False)
        return words


def make_uniform_grid(a: float, b: float, num_nodes: int) -> Grid:
    """Uniform line grid of ``num_nodes`` nodes on [a, b]."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"need finite ends, got a={a}, b={b}")
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
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
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


def write_density_csv(density: GridDensity, path) -> None:
    """CSV dump with header ``x,value`` (line) or ``r,value`` (radial)."""
    write_csv(path, ("r" if density.grid.is_radial else "x") + ",value",
              density.grid.csv_nodes, density.values)


def read_density_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and values of a density written by :func:`write_density_csv`."""
    header, _, body = Path(path).read_text().strip().partition("\n")
    fields = header.strip().split(",")
    if len(fields) != 2 or fields[1] != "value" or fields[0] not in ("x", "r"):
        raise ValueError(f"unrecognized density CSV header: {header!r}")
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
    return data[:, 0], data[:, 1]
