import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from merostar.classes import (
    ClassSpec,
    Family,
    MembershipVerdict,
    Status,
    check_me,
    check_mf,
    check_remark2,
    check_starlike,
    coeff_bound,
    coeff_sufficient_me,
    coeff_weight,
    class_margins,
    grid_margins,
    verdict_from_margins,
)
from merostar.extremal import mf_not_me_witness, starlike_not_mf_witness, theorem21_extremal
from merostar.harness import classify_me, sample_certified_member, sample_wild_function
from merostar.partial_sums import check_ratio_bounds, eq16_function
from merostar.series import (
    DEFAULT_ANGULAR_SAMPLES,
    DEFAULT_RADII,
    DiscGrid,
    LaurentFunction,
    deserialize_coeffs,
    eval_g,
    eval_zg_prime,
)
from merostar.tme import TmeFunction, check_tme_exact
from merostar.tolerances import MARGIN_TOL

import hostile
import oracles

GRID = DiscGrid.default()
TINY_RING = DiscGrid((1e-3,), 8)


def test_me_functional_of_pole_is_one():
    f = LaurentFunction([])
    for alpha in (0.0, 1.0, 7.5):
        for z in (0.2, -0.9j, 0.6 + 0.3j):
            assert class_margins(ClassSpec(Family.ME, alpha), f, z) == 1.0


def test_me_functional_alpha_zero_is_re_g():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = sample_wild_function(rng)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert class_margins(ClassSpec(Family.ME, 0.0), f, z) == pytest.approx(eval_g(f, z).real, abs=1e-15)


def test_me_functional_accepts_arrays():
    f = LaurentFunction([0.5])
    pts = GRID.points[:100]
    vals = class_margins(ClassSpec(Family.ME, 1.0), f, pts)
    assert vals.shape == pts.shape
    assert np.allclose(vals, [class_margins(ClassSpec(Family.ME, 1.0), f, z) for z in pts])


def test_check_me_pole():
    v = check_me(LaurentFunction([]), 3.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER
    assert v.min_margin == 1.0
    assert v.samples_checked == GRID.angular_samples  # the unit circle proves it
    assert v.proof == "circle"


def test_check_me_rejects_exp_witness_near_imaginary_boundary():
    f = mf_not_me_witness()
    v = check_me(f, 1.0, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert v.min_margin < -MARGIN_TOL
    # one radial step inward from the least circle sample, near the imaginary axis
    assert 0.5 <= abs(v.witness) < 1.0
    assert abs(v.witness.real) < abs(v.witness.imag)
    assert oracles.mp_me_margin(f.coeffs, 1.0, v.witness) < -MARGIN_TOL


def test_check_me_boundary_exact_margin_is_indeterminate():
    # the margin 1 - 2*a0*r at z = -r is 0 at r = 0.9999, the outermost grid
    # radius, but -1.0e-4 on the circle: a non-member, refuted inside
    f = LaurentFunction([1.0 / (2.0 * 0.9999)])
    v = check_me(f, 1.0, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert abs(v.witness) < 1.0
    assert oracles.mp_me_margin(f.coeffs, 1.0, v.witness) < -MARGIN_TOL
    # a0 = 1/2 touches 0 only on the circle (a tie): the grid decides, as before
    tie = check_me(LaurentFunction([0.5]), 1.0, GRID)
    assert tie.status is Status.SAMPLED_MEMBER and tie.proof is None
    assert tie.min_margin == pytest.approx(1.0 - 0.9999, rel=1e-9)


def test_scaled_member_with_a_violation_beyond_the_grid_is_refuted():
    # draw 319 of acceptance criterion 5: a 3x-scaled certified member whose
    # ME margin is positive on every grid ring (least 5.9e-5 at r = 0.9999)
    # but -0.0027 at |z| = 0.99999
    rng = np.random.default_rng(105)
    for i in range(320):
        if i % 3 == 0:
            f = sample_certified_member(1.0, rng)
        elif i % 3 == 1:
            f = LaurentFunction(tuple(3.0 * c for c in sample_certified_member(1.0, rng).coeffs))
        else:
            f = sample_wild_function(rng)
    assert f.truncation_degree == 30
    v = check_me(f, 1.0, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert abs(v.witness) < 1.0
    assert oracles.mp_me_margin(f.coeffs, 1.0, v.witness) < -1e-3


def test_check_me_rejects_negative_alpha():
    with pytest.raises(ValueError):
        check_me(LaurentFunction([]), -0.5, GRID)


def test_check_mf_pole_margin_is_one_minus_alpha():
    v = check_mf(LaurentFunction([]), 0.25, GRID)
    assert v.status is Status.SAMPLED_MEMBER
    assert v.min_margin == pytest.approx(0.75, abs=1e-15)


def test_check_mf_accepts_exp_witness_at_order_zero():
    # g = e^z truncated, so zg'/g = z and the margin is 1 - |z|
    v = check_mf(mf_not_me_witness(), 0.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER
    assert v.min_margin == pytest.approx(1.0 - 0.9999, rel=1e-6)


def test_check_mf_rejects_square_witness_near_one():
    v = check_mf(starlike_not_mf_witness(), 0.0, GRID)
    assert v.status is Status.NON_MEMBER
    assert v.witness.real > 0.9


def test_check_mf_order_range_enforced():
    for alpha in (-0.1, 1.0, 2.0):
        with pytest.raises(ValueError):
            check_mf(LaurentFunction([]), alpha, GRID)
        with pytest.raises(ValueError):
            check_starlike(LaurentFunction([]), alpha, GRID)


def test_check_starlike_accepts_square_witness():
    v = check_starlike(starlike_not_mf_witness(), 0.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER


def test_check_starlike_pole():
    # zf'/f = -1 for the pole, so every order alpha < 1 admits it
    v = check_starlike(LaurentFunction([]), 0.9, GRID)
    assert v.status is Status.SAMPLED_MEMBER
    assert v.min_margin == pytest.approx(0.1, abs=1e-12)


def test_degenerate_point_with_violation_elsewhere_is_refuted():
    # g = 1 - 2z vanishes exactly at the grid point z = 0.5
    v = check_mf(LaurentFunction([-2.0]), 0.0, DiscGrid(radii=(0.4, 0.5), angular_samples=8))
    assert v.status is Status.NON_MEMBER


def test_all_degenerate_grid_raises():
    # g = 1 - 256 z^8 vanishes at all eight sampled points of radius 1/2, where
    # every MF margin is undefined: folding those margins raises
    f = LaurentFunction((0,) * 7 + (-256.0,))
    grid = DiscGrid(radii=(0.5,), angular_samples=8)
    margins = grid_margins(ClassSpec(Family.MF, 0.0), f, grid)
    assert np.isnan(margins).all()
    with pytest.raises(ValueError, match="degenerate"):
        verdict_from_margins(margins, grid.points)
    # check_mf never folds that ring: the circle's least sample, -2048/255 + 1 at
    # the eighth roots of unity, refutes with a witness one radial step inside
    v = check_mf(f, 0.0, grid)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert v.min_margin == pytest.approx(1.0 - 2048.0 / 255.0, rel=1e-12)
    assert v.samples_checked == 8 and 0.5 <= abs(v.witness) < 1.0
    assert oracles.mp_class_margin(f.coeffs, "mf", 0.0, v.witness) < -MARGIN_TOL


def test_verdict_statuses_reflect_margins():
    rng = np.random.default_rng(7)
    for _ in range(40):
        f = sample_wild_function(rng)
        v = check_me(f, 1.0, GRID)
        if v.status is Status.NON_MEMBER:
            assert v.min_margin < -MARGIN_TOL
            assert v.witness is not None
        elif v.status is Status.SAMPLED_MEMBER:
            assert v.min_margin >= MARGIN_TOL
        else:
            assert v.status is Status.INDETERMINATE
        assert v.is_member == (v.status is Status.SAMPLED_MEMBER)


def test_coeff_sufficient_me_examples():
    ok, margin = coeff_sufficient_me(LaurentFunction([]).coeffs, 2.0)
    assert ok and margin == 1.0
    # a_0 = 0.9 at alpha = 1 SUMS to 1.8: not certified, not refuted
    ok, margin = coeff_sufficient_me(LaurentFunction([0.9]).coeffs, 1.0)
    assert not ok
    assert margin == pytest.approx(-0.8, abs=1e-12)


def test_coeff_sufficient_matches_naive_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = sample_wild_function(rng)
        alpha = float(rng.uniform(0.0, 3.0))
        _, margin = coeff_sufficient_me(f.coeffs, alpha)
        assert margin == pytest.approx(
            1.0 - oracles.naive_certificate_sum(f.coeffs, alpha), abs=1e-12
        )


complex_file = st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=40).map(
    lambda cs: {"coeffs": [[c.real, c.imag] for c in cs]}
)


magnitudes = st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e308]), st.floats(0.0, 1e308)), max_size=40)


@given(
    st.one_of(hostile.series_file, complex_file),
    st.one_of(st.floats(0.0, 4.0), st.floats(1e300, 1e308)),
    magnitudes,
    st.integers(1, 8),
)
@example({"coeffs": [[0.0, 0.0], [0.0, 0.0]]}, 4e306, [0.0], 1)  # zeros whose weights overflow
@example({"coeffs": [[0.0, 0.0], [0.0, 0.0], [1e-310, 0.0]]}, 1e308, [0.0, 1e-310], 2)  # a finite term, inf weight
@settings(max_examples=300, deadline=None)
def test_certificate_has_the_bits_of_the_generator_sum(data, alpha, mags, n):
    # fsum is correctly rounded, so the certificate has the bits of the exact
    # sum of its float terms rounded once; a zero a_n adds 0 even where its
    # weight overflows, an overflowing weight leaves a finite term finite, and
    # an inf term or total gives inf. TME's exact test and Theorem 4.2's
    # hypothesis hand the certificate their own coefficients.
    member, slack = check_tme_exact(TmeFunction(mags), alpha)
    expected, want = oracles.exact_certificate((0.0, *mags), alpha)
    assert (member, float.hex(slack)) == (expected, float.hex(want))
    try:
        f = deserialize_coeffs(data)
    except ValueError:
        return  # not finite or beyond float range: refused on reading
    certified, margin = coeff_sufficient_me(f.coeffs, alpha)
    expected, want = oracles.exact_certificate(f.coeffs, alpha)
    assert certified is expected
    assert oracles.same_bits(np.array([margin]), np.array([want]))
    with np.errstate(all="ignore"):  # only the hypothesis is checked, not ratios of values that overflow
        report = check_ratio_bounds(f, alpha, n, TINY_RING)
    expected, want = oracles.exact_certificate((0j, *f.coeffs[1:]), alpha)
    assert (report.applicable, float.hex(report.hypothesis_margin)) == (expected, float.hex(want))


def test_certificate_implies_grid_margins():
    rng = np.random.default_rng(9)
    for _ in range(60):
        alpha = float(rng.uniform(0.0, 4.0))
        f = sample_certified_member(alpha, rng)
        ok, _ = coeff_sufficient_me(f.coeffs, alpha)
        assert ok
        assert float(np.min(class_margins(ClassSpec(Family.ME, alpha), f, GRID.points))) >= -MARGIN_TOL


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 4.0),
    st.none() | st.floats(1.0 - 1e-6, 1.0),
    st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_certificate_slack_is_a_lower_bound_for_the_me_margin(seed, alpha, weighted_sum, points):
    # classify_me reports the slack as a certified member's margin without
    # sampling, so no sampled verdict may refute or undercut it
    f = sample_certified_member(alpha, np.random.default_rng(seed))
    certified, slack = coeff_sufficient_me(f.coeffs, alpha)
    if weighted_sum is not None and slack < 1.0:  # rescale the weighted sum into [1 - 1e-6, 1]
        f = LaurentFunction([c * (weighted_sum / (1.0 - slack)) for c in f.coeffs])
        certified, slack = coeff_sufficient_me(f.coeffs, alpha)
    assert certified
    v = check_me(f, alpha, GRID)
    assert v.status is not Status.NON_MEMBER
    assert v.min_margin >= slack - MARGIN_TOL
    for r, theta in points:  # 1e-15 covers the rounding of the float slack itself
        assert oracles.mp_me_margin(f.coeffs, alpha, r * complex(math.cos(theta), math.sin(theta))) >= slack - 1e-15


def test_certified_members_respect_coefficient_bounds():
    rng = np.random.default_rng(13)
    for _ in range(60):
        alpha = float(rng.uniform(0.0, 4.0))
        f = sample_certified_member(alpha, rng)
        for n, c in enumerate(f.coeffs):
            assert abs(c) <= coeff_bound(alpha, n) + MARGIN_TOL


def test_inclusion_chain_at_derived_order():
    # ME(alpha) membership forces both weaker conditions at order 1 - 1/alpha
    rng = np.random.default_rng(17)
    for alpha in (1.0, 1.5, 2.0, 4.0):
        order = 1.0 - 1.0 / alpha
        for _ in range(10):
            f = sample_certified_member(alpha, rng)
            if check_me(f, alpha, GRID).status is not Status.SAMPLED_MEMBER:
                continue
            assert check_mf(f, order, GRID).min_margin >= -MARGIN_TOL
            assert check_starlike(f, order, GRID).min_margin >= -MARGIN_TOL


def test_positive_me_margin_bounds_the_derivative():
    # Re g > alpha |zg'| forces |zg'| < |g|/alpha pointwise
    rng = np.random.default_rng(19)
    pts = GRID.points[:: 37]
    for _ in range(25):
        f = sample_wild_function(rng)
        alpha = float(rng.uniform(0.5, 3.0))
        margins = class_margins(ClassSpec(Family.ME, alpha), f, pts)
        g = eval_g(f, pts)
        zgp = eval_zg_prime(f, pts)
        mask = margins > 0
        assert np.all(np.abs(zgp[mask]) * alpha <= np.abs(g[mask]) + 1e-12)


def test_coeff_bound_examples_and_monotonicity():
    for n in range(6):
        assert coeff_bound(0.0, n) == 2.0
    assert coeff_bound(1.0, 0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-15)
    for alpha in (0.3, 1.0, 2.7):
        values = [coeff_bound(alpha, n) for n in range(21)]
        assert all(b > a for a, b in zip(values[1:], values))
    for n in (0, 3, 9):
        values = [coeff_bound(alpha, n) for alpha in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values[1:], values))


def test_coeff_bound_matches_difference_form():
    rng = np.random.default_rng(23)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 6.0))
        n = int(rng.integers(0, 40))
        m = alpha * (n + 1)
        diff_form = 2.0 * (math.sqrt(m * m + 1.0) - m)
        assert coeff_bound(alpha, n) == pytest.approx(diff_form, rel=1e-12)


def test_coeff_bound_is_one_over_m_where_m_squared_overflows():
    # the formula read 2 / (inf + m) = 0 there; just below, it rounds to 1/m itself
    for alpha, n in [(1e155, 0), (1e200, 1), (1e308, 0), (6.71e153, 1)]:
        assert coeff_bound(alpha, n) == 1.0 / (alpha * (n + 1)) > 0
    below = math.nextafter(math.sqrt(sys.float_info.max), 0.0)
    assert coeff_bound(below, 0) == 2.0 / (math.sqrt(below * below + 1.0) + below) == 1.0 / below


def test_coeff_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        coeff_bound(-1.0, 0)
    with pytest.raises(ValueError):
        coeff_bound(1.0, -1)


def test_coeff_weight_is_shared_form():
    for alpha in (0.0, 0.5, 2.0):
        for n in range(10):
            assert coeff_weight(alpha, n) == 1.0 + alpha * (n + 1)


def test_remark2_pole_and_simple_members():
    v = check_remark2(LaurentFunction([]), GRID)
    assert v.status is Status.SAMPLED_MEMBER
    assert v.min_margin == 1.0
    assert check_remark2(LaurentFunction([0.0, 1.0]), GRID).min_margin >= -MARGIN_TOL
    assert check_remark2(theorem21_extremal(1.0), GRID).min_margin >= -MARGIN_TOL


def test_remark2_violation_at_large_coefficient():
    # margin is Re(1 - 3z^2), which is -1.43 at z = 0.9
    v = check_remark2(LaurentFunction([0.0, 3.0]), GRID)
    assert v.status is Status.NON_MEMBER
    assert class_margins(ClassSpec(Family.ME, 0.0), LaurentFunction([0.0, 3.0]), 0.9) > 0  # not an ME failure


def test_class_spec_validation():
    ClassSpec(Family.ME, 5.0)
    ClassSpec(Family.MF, 0.99)
    with pytest.raises(ValueError):
        ClassSpec(Family.MF, 1.0)
    with pytest.raises(ValueError):
        ClassSpec(Family.STARLIKE, 1.5)
    with pytest.raises(ValueError):
        ClassSpec(Family.ME, -0.1)


def test_family_is_the_three_sampled_classes():
    # TME(alpha) is decided by its exact test alone, so it has no sampled rule
    assert [f.value for f in Family] == ["me", "mf", "starlike"]
    with pytest.raises(ValueError):
        Family("tme")


@pytest.mark.parametrize("alpha", ["2", b"2", "nan", ""])
def test_text_is_not_an_order(alpha):
    # float() parses text, so '2' would be the order 2
    with pytest.raises(ValueError, match="alpha must be a number, not"):
        ClassSpec(Family.ME, alpha)
    with pytest.raises(ValueError, match="alpha must be a number, not"):
        check_me(LaurentFunction([0.1]), alpha, GRID)


def test_nonfinite_margins_count_as_degenerate():
    # g' overflows on part of the grid; those margins are not evidence of
    # anything, and the finite ones refute
    v = check_me(LaurentFunction([1.7e308, 0.8e308]), 1.0, GRID)
    assert v.status is Status.NON_MEMBER
    assert math.isfinite(v.min_margin)
    pts = np.array([0.5 + 0j, 0.5j, -0.5 + 0j])
    v = verdict_from_margins(np.array([np.nan, 0.5, np.inf]), pts)
    assert v.status is Status.INDETERMINATE
    assert v.min_margin == 0.5 and v.witness == 0.5j
    with pytest.raises(ValueError, match="degenerate"):
        verdict_from_margins(np.array([np.nan, -np.inf, np.inf]), pts)
    # g' has an infinite coefficient, so every ME margin is non-finite
    with pytest.raises(ValueError, match="degenerate"):
        check_me(LaurentFunction([0] * 5 + [1e308]), 1.0, GRID)


def test_verdict_fold_degenerate_rules():
    # a NaN (undefined) point forces Indeterminate on margins that would
    # otherwise make a member, and a violation elsewhere still refutes
    pts = np.array([0.5 + 0j, 0.5j])
    ok = verdict_from_margins(np.array([0.5, np.nan]), pts)
    assert ok.status is Status.INDETERMINATE
    bad = verdict_from_margins(np.array([-1.0, np.nan]), pts)
    assert bad.status is Status.NON_MEMBER
    assert bad.witness == 0.5 + 0j


# margins near the tolerance band, ties, signed zeros and every non-finite value
fold_margin = st.one_of(
    st.sampled_from([0.0, -0.0, MARGIN_TOL, -MARGIN_TOL, 2e-9, -2e-9, 0.5, np.nan, np.inf, -np.inf]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(),
)


@given(st.lists(fold_margin, max_size=40), st.none() | st.integers(0, 10**6))
@settings(max_examples=500, deadline=None)
def test_verdict_fold_is_the_masked_fold(values, samples):
    margins = np.array(values, dtype=float)
    points = np.arange(margins.size) * (0.001 + 0.002j)
    try:
        expected = oracles.masked_verdict_fold(margins, points, samples)
    except ValueError as err:  # all NaN or infinite, or no margins at all
        with pytest.raises(ValueError) as got:
            verdict_from_margins(margins, points, samples)
        assert str(got.value) == str(err)
        return
    v = verdict_from_margins(margins, points, samples)
    status, least, witness, n = expected
    assert (v.status.value, v.witness, v.samples_checked, v.proof) == (status, witness, n, None)
    assert oracles.same_bits(v.min_margin, least)


@given(hostile.coeffs, st.sampled_from([Family.ME, Family.MF, Family.STARLIKE]), st.floats(0.0, 0.99))
@settings(max_examples=30, deadline=None)
def test_hostile_series_never_give_a_member_with_a_nonfinite_margin(coeffs, family, alpha):
    try:
        f = LaurentFunction(coeffs)
    except ValueError:
        return  # not finite or beyond float range: refused on construction
    with np.errstate(all="ignore"):
        try:
            verdict, margins, _ = oracles.decide_recorded(ClassSpec(family, alpha).rule, alpha, f, GRID)
        except ValueError:
            return  # no point of the evaluation that decides has a defined margin
        assert math.isfinite(verdict.min_margin)
        if verdict.is_member:
            assert np.isfinite(margins).all()
        if family is Family.ME:
            assert math.isfinite(classify_me(f, alpha, GRID).min_margin)


# the default grid's outer rings, where both extremals approach the boundary
OUTER = DiscGrid(DEFAULT_RADII[-2:], DEFAULT_ANGULAR_SAMPLES)


@pytest.mark.parametrize(
    "f, alpha, horner",
    [
        (theorem21_extremal(2.0, 6), 2.0, True),
        (theorem21_extremal(2.0), 2.0, False),
        (eq16_function(1.0, 3), 1.0, True),
        (eq16_function(1.0, 40), 1.0, False),
    ],
)
def test_near_boundary_me_margins_match_mpmath(f, alpha, horner):
    assert (len(f.g_coeffs) <= math.log2(OUTER.angular_samples)) is horner
    c = np.abs(f.g_coeffs)
    k = np.arange(len(c))
    for grid in (OUTER, DiscGrid.circle(DEFAULT_ANGULAR_SAMPLES)):
        margins = grid_margins(ClassSpec(Family.ME, alpha), f, grid)
        assert abs(float(np.min(margins))) < 1e-2
        pts = grid.points
        for i in sorted({*range(0, len(grid), 61), int(np.argmin(margins))}):
            r = grid.radii[i // grid.angular_samples]
            tol = 1e-12 * (1.0 + float(np.sum((k + 1) * c * r**k)))
            assert abs(margins[i] - oracles.mp_me_margin(f.coeffs, alpha, pts[i])) <= tol
