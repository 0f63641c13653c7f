import cmath
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
    ring_values,
    serialize_coeffs,
)

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


def test_grid_validation():
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5, 0.3), angular_samples=16)  # not increasing
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5, 1.0), angular_samples=16)  # touches boundary
    with pytest.raises(ValueError):
        DiscGrid(radii=(), angular_samples=16)  # empty
    with pytest.raises(ValueError):
        DiscGrid(radii=(0.5,), angular_samples=4)  # too few angles


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
