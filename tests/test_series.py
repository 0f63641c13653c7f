import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merostar.series import (
    DEFAULT_ANGULAR_SAMPLES,
    DiscGrid,
    LaurentFunction,
    deserialize_coeffs,
    eval_g,
    eval_g_prime,
    hadamard,
    partial_sum,
    ring_transform,
    ring_values,
    serialize_coeffs,
)

import hostile
import oracles

finite_component = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
complex_coeff = st.builds(complex, finite_component, finite_component)
coeff_lists = st.lists(complex_coeff, min_size=0, max_size=12)


def test_empty_tail_is_pure_pole():
    f = LaurentFunction([])
    assert f.truncation_degree == -1
    for z in (0.3, -0.7j, 0.5 + 0.5j):
        assert eval_g(f, z) == 1.0
        assert eval_g_prime(f, z) == 0.0


def test_one_minus_z_squared_over_z_values():
    f = LaurentFunction([-2.0, 1.0])
    assert eval_g(f, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert eval_g_prime(f, 0.5) == pytest.approx(-1.0, abs=1e-15)


def test_single_coefficient_at_pure_imaginary_point():
    f = LaurentFunction([0.0, 1.0])  # g = 1 + z^2
    assert eval_g(f, 0.3j) == pytest.approx(0.91, abs=1e-15)
    assert eval_g_prime(f, 0.3j) == pytest.approx(0.6j, abs=1e-15)


def test_truncation_degree_counts_coefficients():
    assert LaurentFunction([1.0, 2.0, 3.0]).truncation_degree == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_nonfinite_coefficients_rejected(bad):
    with pytest.raises(ValueError):
        LaurentFunction([1.0, bad])


@pytest.mark.parametrize(
    "text, message",
    [
        ("12", "coeffs must be a sequence of numbers, not str"),
        (b"12", "coeffs must be a sequence of numbers, not bytes"),
        (["1+2j"], r"coeffs\[0\] must be a number, not str"),
        ([0.5, b"1"], r"coeffs\[1\] must be a number, not bytes"),
    ],
)
def test_text_is_not_a_series(text, message):
    # complex() parses strings, and bytes iterate as integers
    with pytest.raises(ValueError, match=message):
        LaurentFunction(text)


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        degree = int(rng.integers(0, 65))
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        f = LaurentFunction(tuple(coeffs))
        r = float(rng.uniform(0.0, 0.999))
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        got = eval_g(f, z)
        want = oracles.naive_eval_g(coeffs, complex(z))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(50):
        degree = int(rng.integers(0, 33))
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        f = LaurentFunction(tuple(coeffs))
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        want = oracles.central_difference(lambda w: eval_g(f, w), z)
        got = eval_g_prime(f, z)
        if abs(want) > 1e-3:  # away from zeros of g'
            assert abs(got - want) <= 1e-5 * abs(want)


@given(coeff_lists, coeff_lists)
@settings(max_examples=50, deadline=None)
def test_hadamard_commutative(a, b):
    f, g = LaurentFunction(a), LaurentFunction(b)
    assert hadamard(f, g).coeffs == hadamard(g, f).coeffs


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=50, deadline=None)
def test_hadamard_associative(a, b, c):
    # coefficient-wise products are associative up to one reordering of the
    # float multiplications; complex moduli multiply exactly, so relative
    # comparison is safe even under heavy cancellation in one component
    f, g, h = LaurentFunction(a), LaurentFunction(b), LaurentFunction(c)
    left = hadamard(hadamard(f, g), h).coeffs
    right = hadamard(f, hadamard(g, h)).coeffs
    assert len(left) == len(right)
    for p, q in zip(left, right):
        assert cmath.isclose(p, q, rel_tol=1e-12, abs_tol=1e-300)


def test_hadamard_identity_and_annihilator():
    f = LaurentFunction([2.0, 3.0 - 1j, 0.5])
    ones = LaurentFunction([1.0, 1.0, 1.0])
    assert hadamard(f, ones).coeffs == f.coeffs
    assert hadamard(f, LaurentFunction([])).coeffs == ()


def test_partial_sum_drops_constant_and_high_terms():
    f = LaurentFunction([3.0, 5.0, 7.0])
    s = partial_sum(f, 3)
    assert s.coeffs == (0j, 5.0 + 0j, 7.0 + 0j)


def test_partial_sum_n1_is_pole():
    f = LaurentFunction([3.0, 5.0, 7.0])
    assert partial_sum(f, 1).coeffs == ()


def test_partial_sum_truncates_above_n():
    f = LaurentFunction([1.0, 2.0, 3.0, 4.0, 5.0])
    s = partial_sum(f, 3)
    assert s.coeffs[1:3] == f.coeffs[1:3]
    assert all(c == 0 for c in s.coeffs[3:])
    assert len(s.coeffs) <= 3


def test_partial_sum_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        partial_sum(LaurentFunction([1.0]), 0)


def test_delta_distance_examples():
    f = LaurentFunction([])
    g = LaurentFunction([0.0, 0.0, 0.1])
    assert oracles.delta_distance(f, g) == pytest.approx(0.2, abs=1e-15)
    # index 0 carries no weight
    assert oracles.delta_distance(f, LaurentFunction([5.0])) == 0.0


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=50, deadline=None)
def test_delta_distance_is_a_pseudometric(a, b, c):
    f, g, h = LaurentFunction(a), LaurentFunction(b), LaurentFunction(c)
    dfg = oracles.delta_distance(f, g)
    assert dfg >= 0.0
    assert dfg == oracles.delta_distance(g, f)
    assert oracles.delta_distance(f, f) == 0.0
    assert oracles.delta_distance(f, h) <= dfg + oracles.delta_distance(g, h) + 1e-12


def test_default_grid_shape():
    grid = DiscGrid.default()
    assert grid.radii[-3:] == (0.99, 0.999, 0.9999)
    assert grid.radii[0] == pytest.approx(0.1)
    assert grid.angular_samples == DEFAULT_ANGULAR_SAMPLES
    pts = grid.points
    assert len(pts) == len(grid)
    assert np.min(np.abs(pts)) > 0.0  # the pole is never sampled
    assert all(0.0 < r < 1.0 for r in grid.radii)


def test_default_grid_is_one_shared_read_only_instance():
    # like DiscGrid.circle(M): every caller shares one grid, and its points are computed once
    grid = DiscGrid.default()
    assert DiscGrid.default() is grid
    assert grid == DiscGrid() and DiscGrid() is not grid
    assert DiscGrid.default().points is grid.points
    for shared in (grid.thetas, grid.points):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.radii = (0.5,)


def test_grid_validation():
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5, 0.3), angular_samples=16)  # not increasing
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5, 1.0), angular_samples=16)  # touches boundary
    with pytest.raises(ValueError):
        DiscGrid(radii=(), angular_samples=16)  # empty
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5,), angular_samples=4)  # too few angles


@pytest.mark.parametrize(
    "bad, shown",
    [(100.5, "100.5"), (2048.0, "2048.0"), (np.float64(64.0), "np.float64(64.0)"), ("2048", "'2048'"), (None, "None")],
)
def test_angular_samples_must_be_an_integer(bad, shown):
    # np.arange(100.5) holds 101 angles, and len(grid) needs an int
    with pytest.raises(ValueError) as err:
        DiscGrid((0.5,), bad)
    if isinstance(bad, float):
        assert str(err.value) == f"angular_samples must be an integer, got {shown}"
    else:  # not a number at all
        assert str(err.value) == f"angular_samples must be an integer, not {type(bad).__name__}: {shown}"


def test_circle_normalises_its_count_before_the_cached_lookup():
    # a cache keyed on the raw argument would hand 64.0 the 64-angle circle
    circle = DiscGrid.circle(64)
    with pytest.raises(ValueError, match=r"angular_samples must be an integer, got 64\.0"):
        DiscGrid.circle(64.0)
    assert DiscGrid.circle(np.int64(64)) is circle
    assert type(DiscGrid.circle(np.int64(64)).angular_samples) is int


def test_circle_too_large_to_allocate_names_its_count():
    # 2**45 angles need 256 TiB, beyond a 47-bit address space: numpy refuses at
    # once under any overcommit policy, and the refusal names the parameter
    with pytest.raises(ValueError, match=r"^angular_samples 35184372088832 is too large to allocate"):
        DiscGrid.circle(2**45)


@pytest.mark.parametrize("radius", ["0.5", b"0.5"])
def test_text_radii_are_refused(radius):
    # float() would parse the text, which LaurentFunction, ClassSpec and TmeFunction refuse
    for radii, at in (((radius,), 0), ((0.1, radius, 0.9), 1)):
        with pytest.raises(ValueError) as err:
            DiscGrid(radii)
        assert str(err.value) == f"radii[{at}] must be a number, not {type(radius).__name__}: {radius!r}"


def test_numpy_integer_angular_samples_are_plain_ints():
    grid = DiscGrid((0.5, 0.9), np.int64(64))
    assert type(grid.angular_samples) is int
    assert len(grid) == len(grid.points) == 128
    f = LaurentFunction([0.25])
    assert ring_values(f, grid)[0].tobytes() == ring_values(f, DiscGrid((0.5, 0.9), 64))[0].tobytes()


@given(coeff_lists)
@settings(max_examples=50, deadline=None)
def test_serialization_roundtrip_is_bit_exact(coeffs):
    f = LaurentFunction(coeffs)
    assert deserialize_coeffs(serialize_coeffs(f)).coeffs == f.coeffs


def test_deserialize_rejects_malformed_entries():
    with pytest.raises(ValueError, match="coeffs"):
        deserialize_coeffs({"series": []})
    with pytest.raises(ValueError, match="3"):
        deserialize_coeffs({"coeffs": [[0, 0], [1, 0], [2, 0], [1, 2, 3]]})
    with pytest.raises(ValueError, match="1"):
        deserialize_coeffs({"coeffs": [[0.0, 0.0], [float("nan"), 0.0]]})
    # JSON true/false are ints to Python but not numbers to a series file
    with pytest.raises(ValueError, match="0"):
        deserialize_coeffs({"coeffs": [[True, False]]})
    # JSON integers have no size limit; floats do
    with pytest.raises(ValueError, match="1"):
        deserialize_coeffs({"coeffs": [[0, 0], [10**400, 0]]})
    with pytest.raises(ValueError, match="2"):
        LaurentFunction([0, 0, -(10**400)])


def test_deserialize_ignores_unknown_keys():
    f = deserialize_coeffs({"coeffs": [[1.5, -2.0]], "tail_bound": 0.1})
    assert f.coeffs == (1.5 - 2.0j,)


def test_serialized_form_is_json_friendly():
    f = LaurentFunction([1.0 + 2.0j, -0.5])
    text = json.dumps(serialize_coeffs(f))
    assert deserialize_coeffs(json.loads(text)).coeffs == f.coeffs


# what a JSON file or a careless caller puts where a number belongs, beyond
# hostile.number: signed zeros, strings and bytes, numpy scalars, containers
loose_number = st.one_of(
    hostile.number,
    st.just(-0.0),
    st.text(max_size=4),
    st.binary(max_size=2),
    st.sampled_from(["1", "-0.0", "1e400", "nan", "1+2j"]),
    st.builds(lambda re, im: np.complex128(complex(re, im)), st.floats(), st.floats()),
    st.none(),
)
loose_entry = st.one_of(
    st.lists(loose_number, min_size=2, max_size=2),
    st.lists(loose_number, max_size=3),  # wrong lengths
    st.tuples(hostile.number, hostile.number),
    st.dictionaries(st.text(max_size=2), hostile.number, max_size=2),
    loose_number,
)
loose_series = st.one_of(
    hostile.series_file,
    st.builds(lambda c: {"coeffs": c}, st.lists(loose_entry, max_size=8)),
    st.builds(lambda c: {"coeffs": c}, loose_number),
)


def _same_outcome(fast, oracle, arg):
    """fast(arg) gives oracle(arg) bit for bit, or raises its error."""
    try:
        expected = oracle(arg)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            fast(arg)
        assert str(raised.value) == str(exc)
        return
    got = fast(arg)
    assert all(type(c) is complex for c in got)
    bits = lambda cs: [(c, math.copysign(1, c.real), math.copysign(1, c.imag)) for c in cs]
    assert bits(got) == bits(expected)


@given(loose_series)
@settings(max_examples=300, deadline=None)
def test_deserialize_is_the_entrywise_reading(data):
    _same_outcome(lambda d: deserialize_coeffs(d).coeffs, oracles.entrywise_deserialize, data)


@given(st.one_of(hostile.coeffs, st.lists(loose_number, max_size=8), st.text(max_size=4), st.binary(max_size=4)))
@settings(max_examples=300, deadline=None)
def test_coefficient_check_is_the_entrywise_check(values):
    oracle = lambda v: oracles.entrywise_finite_complex(v, "coeffs")
    _same_outcome(lambda v: LaurentFunction(v).coeffs, oracle, values)


@pytest.mark.parametrize(
    "grid",
    [
        DiscGrid.default(),
        DiscGrid.with_rmax(0.95, 256),
        DiscGrid((0.5,), 8),
        DiscGrid((0.999,), 9),
        DiscGrid((1.0 - 1e-15,), 2048),
        DiscGrid.circle(2048),
    ],
    ids=["default", "rmax-0.95-256", "ring-8", "ring-9", "ring-2048", "circle-2048"],
)
def test_grid_points_are_the_outer_product_of_radii_and_roots(grid):
    m = grid.angular_samples
    thetas = 2.0 * np.pi * np.arange(m) / m
    points = (np.asarray(grid.radii)[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    assert grid.thetas.tobytes() == thetas.tobytes()
    assert grid.points.tobytes() == points.tobytes()
    # one table of roots per M, shared read-only by every grid with M angles
    assert grid.thetas is DiscGrid.circle(m).thetas
    for shared in (grid.thetas, grid.points, DiscGrid.circle(m).points):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def _ring_scale(f, grid):
    """1 + sum (k+1)|c_k| r^k over the coefficients c_k of g, per grid point:
    the size of g and z g' that their rounding error is measured against."""
    c = np.abs(f.g_coeffs)
    k = np.arange(len(c))
    per_ring = [1.0 + float(np.sum((k + 1) * c * r**k)) for r in grid.radii]
    return np.repeat(per_ring, grid.angular_samples)


@pytest.mark.parametrize("m", [8, 64, 2048])
def test_ring_values_match_horner_on_grid_points(m):
    # len(g) = degree + 2, so Horner takes degrees up to log2(m) - 2, the
    # transform everything above, and degrees past m and 2m alias
    switch = int(math.log2(m)) - 2
    degrees = [0, switch, switch + 1, m - 2, m + 5, 2 * m + 3]
    grid = DiscGrid((0.1, 0.5, 0.9, 0.999, 0.9999), m)
    rng = np.random.default_rng(m)
    pts = grid.points
    for degree in degrees:
        raw = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        f = LaurentFunction(tuple(raw / np.arange(1, degree + 2)))
        g, zgp = ring_values(f, grid)
        tol = 1e-12 * _ring_scale(f, grid)
        assert g.shape == zgp.shape == pts.shape
        assert np.all(np.abs(g - eval_g(f, pts)) <= tol)
        assert np.all(np.abs(zgp - pts * eval_g_prime(f, pts)) <= tol)


@pytest.mark.parametrize(
    "coeffs",
    [
        [0.0, 1e308],  # short enough for Horner
        [1e308] * 40,  # transform; both g and z g' overflow near theta = 0
        [0.0] * 100 + [1e308, -1e308],  # huge terms folded onto one index
    ],
)
def test_ring_values_overflow_is_never_finite_garbage(coeffs):
    grid = DiscGrid((0.5, 0.9999), 64)
    f = LaurentFunction(coeffs)
    g, zgp = ring_values(f, grid)
    # the same values scaled by 2^-1000, which is exact and cannot overflow
    scale = 2.0**-1000
    c = f.g_coeffs * scale
    pts = grid.points
    true_g = np.polynomial.polynomial.polyval(pts, c)
    true_zgp = pts * np.polynomial.polynomial.polyval(pts, np.arange(1, len(c)) * c[1:])
    tol = 1e-12 * _ring_scale(LaurentFunction([x * scale for x in coeffs]), grid)
    limit = np.finfo(float).max * scale
    overflowing = 0
    for got, true in ((g, true_g), (zgp, true_zgp)):
        for part in (np.real, np.imag):
            finite = np.isfinite(part(got))
            beyond = np.abs(part(true)) > limit
            overflowing += int(beyond.sum())
            assert not finite[beyond].any()
            err = np.abs(part(got)[finite] * scale - part(true)[finite])
            assert np.all(err <= tol[finite])
    assert overflowing > 0


def test_ring_values_memory_is_linear_in_degree_plus_grid():
    f = LaurentFunction(np.random.default_rng(0).normal(size=100_000))
    grid = DiscGrid.default()
    f.g_coeffs, grid.points  # cached inputs, not part of the evaluation
    tracemalloc.start()
    try:
        ring_values(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one radius-by-coefficient complex array alone is 12 * 10^5 * 16 bytes
    assert peak < 8e6


# signed zeros, wide magnitudes and subnormals; sums of the largest overflow
wide_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
wide_coeff = st.builds(complex, wide_component, wide_component)


@st.composite
def stacks_on_grids(draw):
    """One to three coefficient rows of lengths 1 to 2M + 3, and a grid with
    M angles: the unit circle, one ring or the twelve default radii. About
    half the rows fit Horner's branch (at most log2(M) coefficients)."""
    m = draw(st.sampled_from([8, 16, 32]))
    grid = draw(
        st.sampled_from([DiscGrid.circle(m), DiscGrid((0.7,), m), DiscGrid(angular_samples=m)])
    )
    length = st.one_of(st.integers(1, int(math.log2(m))), st.integers(1, 2 * m + 3))
    row = length.flatmap(lambda n: st.lists(wide_coeff, min_size=n, max_size=n))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    return [np.array(r, dtype=complex) for r in rows], grid


@given(stacks_on_grids())
@settings(max_examples=300, deadline=None)
def test_ring_transform_has_the_bits_of_the_allocating_kernel(case):
    rows, grid = case
    assert oracles.same_bits(ring_transform(rows, grid), oracles.allocating_ring_transform(rows, grid))


@pytest.mark.parametrize("length", [1, 2, 11, 12, 65, 2049, 4100])
@pytest.mark.parametrize("grid", [DiscGrid.circle(2048), DiscGrid((0.99,), 2048), DiscGrid()], ids=["circle", "ring", "grid"])
def test_ring_transform_has_the_bits_of_the_allocating_kernel_at_2048_angles(length, grid):
    rng = np.random.default_rng(length)
    c = rng.normal(size=length) + 1j * rng.normal(size=length)
    c[::3] = -0.0  # signed zeros survive the in-place recurrence
    rows = [c, np.arange(length) * c]
    assert oracles.same_bits(ring_transform(rows, grid), oracles.allocating_ring_transform(rows, grid))


ALLOCATION_GRIDS = {"grid": DiscGrid(), "circle-8192": DiscGrid.circle(8192)}
ALLOCATION_CASES = [(d, name) for d in (0, 4, 9, 10, 20) for name in ALLOCATION_GRIDS] + [(64, "grid"), (256, "grid")]


@pytest.mark.parametrize("degree, grid", ALLOCATION_CASES, ids=[f"{d}-{name}" for d, name in ALLOCATION_CASES])
def test_ring_values_allocates_little_beyond_its_output(grid, degree):
    # Horner up to log2(M) coefficients and the transform above; each writes
    # into the array it returns. Beside it the fold holds one block of M
    # coefficients on one ring at a time, 1.5% at degree 64 and 5% at degree
    # 256 on the twelve rings.
    grid = ALLOCATION_GRIDS[grid]
    f = LaurentFunction(np.random.default_rng(degree).normal(size=degree + 1) / (degree + 1))
    f.g_coeffs, grid.points  # cached inputs, not part of the evaluation
    ring_values(f, grid)  # FFT plans and other first-call set-up
    tracemalloc.start()
    try:
        g, zgp = ring_values(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (g.nbytes + zgp.nbytes)
