import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow.grids import (
    CSV_CHUNK,
    _g17_tables,
    Grid,
    GridDensity,
    cdf_and_quantile,
    density_from_quantile,
    fmt_float,
    g17_words,
    gaussian_density,
    gradient_fd,
    integrate,
    make_uniform_grid,
    midpoint_q_nodes,
    normalize,
    read_density_csv,
    second_derivative_fd,
    sphere_area,
    staggered_radial_grid,
    text_column,
    write_csv,
    write_density_csv,
)


def line_grid(n=2049, a=-8.0, b=8.0):
    return make_uniform_grid(a, b, n)


# ---------------------------------------------------------------- constructors

def test_uniform_grid_nodes():
    g = make_uniform_grid(0.0, 1.0, 11)
    assert np.allclose(g.nodes, np.arange(11) * 0.1)
    assert g.spacing == pytest.approx(0.1)


def test_radial_grid_weights_carry_sphere_factor():
    g = Grid(0.1 * np.arange(101), 0.1, ambient_dim=3, geometry="radial")
    assert g.spacing == pytest.approx(0.1)
    # interior weight = h * 4 pi r^2
    r = g.nodes[50]
    assert g.quad_weights[50] == pytest.approx(0.1 * 4.0 * math.pi * r**2)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(1) == pytest.approx(2.0)


def test_wide_line_grid_spacing():
    g = make_uniform_grid(-8.0, 8.0, 2049)
    assert g.spacing == pytest.approx(16.0 / 2048)


def test_grid_constructor_rejections():
    with pytest.raises(ValueError):
        make_uniform_grid(1.0, 0.0, 16)
    with pytest.raises(ValueError):
        make_uniform_grid(0.0, 1.0, 7)
    with pytest.raises(ValueError, match="radial grids require nonnegative nodes"):
        Grid(np.linspace(-1.0, 1.0, 16), 2.0 / 15, geometry="radial")
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 1.0, 0.5]), 0.5)


def test_radial_weights_that_overflow_are_rejected():
    assert 0.0 < sphere_area(343) < math.inf
    with pytest.raises(ValueError, match="unit sphere area of R\\^344 overflows"):
        sphere_area(344)                        # Gamma(172) overflows
    staggered_radial_grid(10.0, 512, 309)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # nor is numpy's warning shown
        with pytest.raises(ValueError, match="weights overflow in dimension 310"):
            staggered_radial_grid(10.0, 512, 310)   # r^309 near r = 10


def test_staggered_radial_grid_avoids_origin():
    g = staggered_radial_grid(10.0, 100, 3)
    assert g.nodes[0] == pytest.approx(0.05)
    assert g.nodes[-1] == pytest.approx(9.95)
    assert g.is_radial


# ---------------------------------------------------------------- integrate

def test_integrate_constant_exact():
    g = make_uniform_grid(0.0, 1.0, 65)
    assert integrate(np.ones(65), g) == pytest.approx(1.0, abs=1e-14)


def test_integrate_linear_exact():
    g = make_uniform_grid(0.0, 1.0, 65)
    assert integrate(g.nodes, g) == pytest.approx(0.5, abs=1e-14)


def test_integrate_gaussian_mass():
    g = line_grid()
    # oracle: closed-form normalizer sqrt(2 pi)
    vals = np.exp(-0.5 * g.nodes**2) / math.sqrt(2.0 * math.pi)
    assert integrate(vals, g) == pytest.approx(1.0, abs=1e-8)


def test_integrate_length_mismatch():
    g = make_uniform_grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        integrate(np.ones(17), g)


@settings(max_examples=40, deadline=None)
@given(c0=st.floats(-5, 5), c1=st.floats(-5, 5),
       a=st.floats(-3, 0.5), width=st.floats(0.5, 5), n=st.integers(8, 200))
def test_integrate_exact_on_affine(c0, c1, a, width, n):
    g = make_uniform_grid(a, a + width, n)
    expected = c0 * width + 0.5 * c1 * ((a + width) ** 2 - a**2)
    scale = 1.0 + abs(expected)
    assert abs(integrate(c0 + c1 * g.nodes, g) - expected) <= 1e-12 * scale


# ---------------------------------------------------------------- derivatives

def test_gradient_constant_zero():
    g = make_uniform_grid(0.0, 1.0, 33)
    assert np.allclose(gradient_fd(np.full(33, 2.5), g), 0.0, atol=1e-13)


def test_gradient_linear_exact():
    g = make_uniform_grid(-2.0, 3.0, 41)
    assert np.allclose(gradient_fd(3.0 * g.nodes, g), 3.0, atol=1e-12)


def test_gradient_sin_second_order():
    errs = []
    for n in (101, 201, 401):
        g = make_uniform_grid(0.0, 2.0 * math.pi, n)
        err = np.max(np.abs(gradient_fd(np.sin(g.nodes), g) - np.cos(g.nodes)))
        # Taylor remainder: interior h^2/6, boundary h^2/3
        assert err <= 0.4 * g.spacing**2
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_gradient_needs_three_points():
    g = make_uniform_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        gradient_fd(np.ones(9), g)


def test_second_derivative_exact_on_quadratics():
    g = make_uniform_grid(-1.0, 2.0, 31)
    f = 1.5 * g.nodes**2 - 2.0 * g.nodes + 0.3
    assert np.allclose(second_derivative_fd(f, g), 3.0, atol=1e-10)


# ---------------------------------------------------------------- densities

def test_normalize_constant():
    g = make_uniform_grid(0.0, 1.0, 33)
    d = normalize(np.full(33, 2.0), g)
    assert np.allclose(d.values, 1.0)
    assert d.mass == pytest.approx(1.0, abs=1e-14)


def test_normalize_gaussian_matches_closed_form():
    g = line_grid()
    d = normalize(np.exp(-0.5 * g.nodes**2), g)
    expected = np.exp(-0.5 * g.nodes**2) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(d.values - expected)) <= 1e-8


def test_normalize_rejects_bad_input():
    g = make_uniform_grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        normalize(np.zeros(16), g)
    bad = np.ones(16)
    bad[3] = -0.1
    with pytest.raises(ValueError):
        normalize(bad, g)


def test_normalize_subnormal_samples():
    # 5e-324 times any quadrature weight underflows to a mass of 0
    g = make_uniform_grid(0.0, 1.0, 16)
    tiny = np.zeros(16)
    tiny[0] = 5e-324
    one = np.zeros(16)
    one[0] = 1.0
    d = normalize(tiny, g)
    assert d.mass == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(d.values, normalize(one, g).values)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=16, max_size=64))
def test_normalize_idempotent(vals):
    vals = np.asarray(vals)
    if vals.sum() <= 0.0:
        vals = vals + 0.5
    g = make_uniform_grid(0.0, 1.0, len(vals))
    once = normalize(vals, g)
    twice = normalize(once.values, g)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-12 * (1 + once.values.max())


def test_density_rejects_negative_values():
    g = make_uniform_grid(0.0, 1.0, 16)
    vals = np.ones(16)
    vals[0] = -1e-9
    with pytest.raises(ValueError):
        GridDensity(g, vals)


# ---------------------------------------------------------------- quantiles

def test_quantile_of_uniform_is_identity():
    g = make_uniform_grid(0.0, 1.0, 257)
    d = normalize(np.ones(257), g)
    x = cdf_and_quantile(d, 64)
    assert np.max(np.abs(x - midpoint_q_nodes(64))) <= 1e-12


def test_gaussian_median_is_zero():
    d = gaussian_density(line_grid())
    x = cdf_and_quantile(d, 128)
    median = np.interp(0.5, midpoint_q_nodes(128), x)
    assert abs(median) <= d.grid.spacing


def test_quantile_translation_equivariance():
    g = line_grid()
    c = 0.5  # 64 grid cells, so the shifted density is exactly representable
    d0 = gaussian_density(g)
    dc = normalize(np.exp(-0.5 * (g.nodes - c) ** 2), g)
    q0 = cdf_and_quantile(d0, 512)
    qc = cdf_and_quantile(dc, 512)
    assert np.max(np.abs(qc - q0 - c)) <= 1e-9


def test_quantile_rejects_radial_and_small_m():
    radial = staggered_radial_grid(10.0, 64, 3)
    d = normalize(np.exp(-radial.nodes), radial)
    with pytest.raises(ValueError):
        cdf_and_quantile(d, 64)
    d_line = gaussian_density(line_grid(129))
    with pytest.raises(ValueError):
        cdf_and_quantile(d_line, 4)


def test_quantile_roundtrip_recovers_density():
    g = line_grid(1025)
    vals = np.exp(-0.5 * (g.nodes - 1.5) ** 2) + 0.6 * np.exp(-2.0 * (g.nodes + 2.0) ** 2)
    d = normalize(vals, g)
    back = density_from_quantile(cdf_and_quantile(d, 4096), g)
    l1 = integrate(np.abs(back.values - d.values), g)
    assert l1 <= 0.02  # O(1/M + h)


def test_density_from_quantile_validation():
    g = line_grid(129)
    x = np.linspace(-1, 1, 16)
    density_from_quantile(x, g)
    with pytest.raises(ValueError, match="nondecreasing"):
        density_from_quantile(x[::-1], g)
    with pytest.raises(ValueError, match=">= 8"):
        density_from_quantile(x[:4], g)


# ---------------------------------------------------------------- serialization

def test_density_csv_roundtrip(tmp_path):
    d = gaussian_density(line_grid(257))
    path = tmp_path / "density.csv"
    write_density_csv(d, path)
    text = path.read_text().splitlines()
    assert text[0] == "x,value"
    nodes, values = read_density_csv(path)
    assert np.allclose(values, d.values, rtol=0, atol=0)
    assert np.array_equal(nodes, d.grid.nodes)


def test_radial_csv_header(tmp_path):
    g = staggered_radial_grid(10.0, 64, 3)
    d = normalize(np.exp(-g.nodes), g)
    path = tmp_path / "radial.csv"
    write_density_csv(d, path)
    assert path.read_text().splitlines()[0] == "r,value"
    nodes, values = read_density_csv(path)
    assert np.array_equal(nodes, g.nodes)
    assert np.array_equal(values, d.values)


EXTREMES = [5e-324, 1e-300, 1e300, 1.0, 1.0 / 3.0]


def reference_density_csv(density):
    """The row-by-row writer the template replaced, kept as the oracle."""
    coord = "r" if density.grid.is_radial else "x"
    lines = [f"{coord},value"]
    for x, v in zip(density.grid.nodes, density.values):
        lines.append(f"{fmt_float(x)},{fmt_float(v)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [
    make_uniform_grid(-8.0, 8.0, 257),
    staggered_radial_grid(10.0, 64, 3),
], ids=["line", "radial"])
def test_density_csv_bytes_match_row_reference(tmp_path, grid):
    values = np.resize(np.array(EXTREMES), grid.num_nodes)
    for density in (GridDensity(grid, values), normalize(np.exp(-grid.nodes), grid)):
        path = tmp_path / "density.csv"
        write_density_csv(density, path)
        assert path.read_text() == reference_density_csv(density)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True)
                | st.sampled_from(EXTREMES), min_size=8, max_size=64),
       st.booleans())
def test_density_csv_write_read_bitwise(tmp_path_factory, samples, radial):
    samples[0] = 1.0  # positive mass
    n = len(samples)
    grid = (staggered_radial_grid(10.0, n, 3) if radial
            else make_uniform_grid(-3.0, 5.0, n))
    density = GridDensity(grid, samples)
    path = tmp_path_factory.mktemp("csv") / "density.csv"
    write_density_csv(density, path)
    nodes, values = read_density_csv(path)
    assert path.read_text().startswith("r," if radial else "x,")
    assert np.array_equal(nodes, grid.nodes)
    assert np.array_equal(values, density.values)


def g17_families(rng, size):
    """Seeded doubles of every kind the '%.17g' kernel formats: uniform and
    log-uniform values, random bit patterns of finite doubles (subnormals
    included), 10^k and 1 to 8 ulps on either side, integers, binary
    fractions, grid nodes, exact decimal ties (odd multiples of 1/4 near
    1e15 have 18 digits, the last a 5) and the edges of the range."""
    powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
    near = [powers]
    for toward in (np.inf, 0.0):
        x = powers
        for _ in range(8):
            x = np.nextafter(x, toward)
            near.append(x)
    bits = rng.integers(0, 0x7FF0000000000000, size, dtype=np.int64).view(np.float64)
    return np.concatenate([
        rng.random(size), 10.0 ** rng.uniform(-279.0, 279.0, size), bits, *near,
        rng.integers(0, 10**18, size).astype(float),
        rng.integers(-10**12, 10**12, size) / 1024.0, np.linspace(-8.0, 8.0, 4097),
        (2.0 * rng.integers(2 * 10**15, 4 * 10**15, size) + 1.0) / 4.0,
        [m * 2.0**-24 for m in range(3, 16, 2)],   # ties with 10^q inexact
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-281, 1e-280, 1e280, 1e281,
         np.finfo(float).max, np.inf]])


def assert_same_text(path, expected):
    text = path.read_text()
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        row = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                   min(len(got), len(want)))
        pytest.fail(f"line {row + 1}: {got[row:row + 1]} != {want[row:row + 1]} "
                    f"({len(got)} lines against {len(want)})")


@pytest.mark.parametrize("radial", [False, True], ids=["line", "radial"])
def test_density_csv_bytes_match_row_reference_over_value_families(tmp_path, radial):
    values = g17_families(np.random.default_rng(20), 31000)
    values = np.where(values < 0.0, -values, values)   # nonnegative; -0.0 stays
    assert values.size > 2 * 10**5
    grid = (staggered_radial_grid(10.0, values.size, 3) if radial
            else make_uniform_grid(-8.0, 8.0, values.size))
    density = GridDensity(grid, values)
    write_density_csv(density, tmp_path / "density.csv")
    assert_same_text(tmp_path / "density.csv", reference_density_csv(density))


@pytest.mark.parametrize("n", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
def test_density_csv_bytes_at_chunk_edges(tmp_path, n):
    grid = make_uniform_grid(-8.0, 8.0, n)
    noise = np.random.default_rng(n).random(n)
    for density in (normalize(np.exp(-0.5 * grid.nodes**2) * (1.0 + noise), grid),
                    GridDensity(grid, 10.0 ** (300.0 * noise - 150.0))):
        write_density_csv(density, tmp_path / "density.csv")
        assert_same_text(tmp_path / "density.csv", reference_density_csv(density))


def test_density_csv_whose_values_all_fall_back(tmp_path):
    # outside the kernel's range [1e-280, 1e4): huge, tiny, subnormal,
    # infinite, and exact decimal ties near 1e15
    rng = np.random.default_rng(3)
    values = np.concatenate([1e281 * (1.0 + rng.random(50)), 1e-300 * rng.random(50),
                             5e-324 * rng.integers(1, 10**6, 50), [np.inf],
                             (2.0 * rng.integers(2 * 10**15, 4 * 10**15, 50) + 1.0) / 4.0])
    grid = staggered_radial_grid(10.0, values.size, 3)
    density = GridDensity(grid, values)
    write_density_csv(density, tmp_path / "density.csv")
    assert_same_text(tmp_path / "density.csv", reference_density_csv(density))


def near_decimal_ties(k, reach):
    """Doubles v in [10^k, 10^(k+1)) whose P = v 10^(16-k), the number the
    '%.17g' kernel rounds, lies within reach 2^-s of a half-integer but not
    on it, for each binade v = M 2^e with s = -e - (16 - k) > 1: M is solved
    from M 5^(16-k) = 2^(s-1) + t (mod 2^s) for 0 < |t| <= reach."""
    q, found = 16 - k, []
    for e in range(math.floor(math.log2(10.0**k)) - 53,
                   math.floor(math.log2(10.0**(k + 1))) - 51):
        s = -e - q
        if s <= 1:
            continue
        inverse = pow(5**q, -1, 2**s)
        for t in range(-reach, reach + 1):
            mantissa = (2 ** (s - 1) + t) * inverse % 2**s
            v = math.ldexp(mantissa, e)
            if t and 2**52 <= mantissa < 2**53 and 10.0**k <= v < 10.0 ** (k + 1):
                found.append(v)
    return found


def test_g17_words_rounds_in_range_decimal_ties_like_python():
    """Exact ties in range (odd M 2^(k-17) in [10^k, 10^(k+1)) has 18
    digits, the last a 5, for -7 <= k <= 3) and near ties (P within 1e-12 of
    a half-integer where 10^(16-k) is not a double).  The exact ones round
    right without the kernel's tie fallback, but 14 of the 552 near ties,
    at 1e-12 <= v < 1e-7, come out one unit off in the 17th digit."""
    rng = np.random.default_rng(26)
    exact = [(2.0 * rng.integers(10.0**k * 2.0 ** (16 - k), 10.0 ** (k + 1)
                                 * 2.0 ** (16 - k), 200) + 1.0) * 2.0 ** (k - 17)
             for k in range(-7, 4)]
    near = np.array([v for k in range(-30, -6) for v in near_decimal_ties(k, 200)])
    assert near.size == 552
    values = np.concatenate([*exact, near, -near])
    assert np.all((np.abs(values) >= 1e-280) & (np.abs(values) < 1e4))
    got = g17_words(values).tobytes().translate(None, b"\0").split(b",")[:-1]
    assert got == [b"%.17g" % v for v in values.tolist()]


def test_float_csv_is_write_csv_with_signs_and_specials(tmp_path):
    """Three float columns, of every kind and both signs, against Python's
    ``%`` row by row."""
    values = g17_families(np.random.default_rng(5), 2000)
    values = np.concatenate([values, -values, [np.nan, -np.inf, -0.0]])
    table = values[:values.size // 3 * 3].reshape(-1, 3)
    write_csv(tmp_path / "kernel.csv", "a,b,c", table[:, 0], table[:, 1:])
    rows = ["%.17g,%.17g,%.17g" % tuple(row) for row in table.tolist()]
    assert_same_text(tmp_path / "kernel.csv", "\n".join(["a,b,c", *rows]) + "\n")


def test_write_csv_mixes_text_and_float_columns(tmp_path):
    """Text ids, floats in and out of the kernel's range (negative, zero,
    subnormal, nan, inf and integer-valued doubles from 1e4 up, which go to
    Python's ``%``) and true/false verdicts, against Python's ``%`` rows."""
    rng = np.random.default_rng(27)
    lhs = np.concatenate([[-2.5, 0.0, -0.0, 5e-324, 1e-310, np.nan, np.inf, -np.inf,
                           1e4, 123456.0, 2.0**53, 1e17, -1e22, 7.0],
                          rng.standard_normal(CSV_CHUNK)])
    rhs = np.concatenate([rng.integers(1, 10**9, 30).astype(float),
                          10.0 ** rng.uniform(-300.0, 300.0, lhs.size - 30)])
    ids = [f"case-{k:05d}" + "x" * (k % 11) for k in range(lhs.size)]
    passed = rhs > lhs
    write_csv(tmp_path / "mixed.csv", "case_id,lhs,rhs,pass", text_column(ids),
              lhs, rhs.tolist(), text_column("true" if p else "false" for p in passed))
    rows = ["%s,%.17g,%.17g,%s" % (case, a, b, "true" if p else "false")
            for case, a, b, p in zip(ids, lhs.tolist(), rhs.tolist(), passed)]
    assert_same_text(tmp_path / "mixed.csv",
                     "\n".join(["case_id,lhs,rhs,pass", *rows]) + "\n")


def reference_g17_tables():
    """The tables of the '%.17g' kernel built by exact integers and Python
    bytes, one entry at a time, as the oracle of their vectorized build."""
    powers = [10**q for q in range(301)]
    high = [float(p) for p in powers]
    low = [float(p - int(float(p))) for p in powers]
    group = np.arange(10000)[:, None]
    text = (group // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    digits = [np.where(keep, text, 0).view(np.uint32).ravel() for keep in (
        True, group >= [1000, 100, 10, 0], group % [10000, 1000, 100, 10] > 0)]
    fixed, ks = range(-4, 17), range(-301, 4)
    dot = [b"." + b"0" * (-k - 1) * (k < 0) * (k in fixed) for k in ks]
    exp = [b"\0e%+03d" % k * (k not in fixed) for k in ks]
    return dict(
        H=np.array(high), L=np.array(low), digits=np.concatenate(digits),
        shift=10 ** np.array([min(16 - k, 17) if k in fixed else 16 for k in ks]),
        dot=np.frombuffer(b"".join(d.ljust(4, b"\0") for d in dot), "u4"),
        exp=np.frombuffer(b"".join(e.ljust(7, b"\0") + b"," for e in exp), "u8"))


def test_g17_tables_equal_the_reference_construction():
    tables, reference = _g17_tables(), reference_g17_tables()
    assert tables.keys() == reference.keys()
    for name, table in reference.items():
        assert tables[name].dtype == table.dtype, name
        assert np.array_equal(tables[name], table), name


def reference_csv_nodes(grid):
    """Each node's text split into Python bytes objects and padded to a
    fixed width, as the oracle of ``Grid.csv_nodes``."""
    parts = np.split(grid.nodes, range(CSV_CHUNK, grid.num_nodes, CSV_CHUNK))
    texts = b"".join(g17_words(p).tobytes() for p in parts).translate(None, b"\0")
    texts = texts.split(b",")[:-1]
    width = max(map(len, texts)) // 4 * 4 + 4   # the text, NULs and a comma
    column = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    column[:, -1] = ord(",")
    return np.frombuffer(column.tobytes(), np.uint32).reshape(grid.num_nodes, -1)


@pytest.mark.parametrize("grid", [
    make_uniform_grid(-8.0, 8.0, 65537),
    staggered_radial_grid(10.0, 3 * CSV_CHUNK + 5, 3),
    make_uniform_grid(-1e5, 3e-7, 1000),
    Grid(np.array([1e-300, 2e-300, 3e-300]), 1e-300),
], ids=["line-65537", "radial", "wide", "tiny"])
def test_csv_nodes_equal_the_reference_construction(grid):
    column = grid.csv_nodes
    reference = reference_csv_nodes(grid)
    assert column.dtype == reference.dtype
    assert np.array_equal(column, reference)
    assert not column.flags.writeable


@pytest.mark.parametrize("body, line", [
    ("0,1\n1,1,7\n2,1\n3,1", 3),     # three fields
    ("0,1\n1\n2,1\n3,1", 3),         # one field
    ("0,1\n1,1\n2,1\n3", 5),         # last row lacks its value
    ("0,1,1\n1\n2,1\n3,1", 2),       # two bad rows that balance out
    ("", 2),                         # no rows
])
def test_read_density_csv_names_row_without_two_fields(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + body + "\n")
    with pytest.raises(ValueError, match=f"line {line} does not have two fields"):
        read_density_csv(path)


def test_read_density_csv_rejects_a_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x,value\n0,1\n")
    with pytest.raises(ValueError, match="at least two rows"):
        read_density_csv(path)


def test_read_density_csv_accepts_crlf(tmp_path):
    d = gaussian_density(line_grid(65))
    path = tmp_path / "density.csv"
    write_density_csv(d, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    nodes, values = read_density_csv(path)
    assert np.array_equal(nodes, d.grid.nodes)
    assert np.array_equal(values, d.values)
