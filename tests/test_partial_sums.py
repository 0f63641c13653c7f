import numpy as np
import pytest

from merostar.classes import coeff_weight
from merostar.harness import sample_hypothesis_member
from merostar.partial_sums import RatioBoundReport, check_ratio_bounds, eq16_function
from merostar.series import DiscGrid, LaurentFunction, eval_g, partial_sum

import oracles

GRID = DiscGrid.default()
POLE = LaurentFunction([])
SMALL_GRID = DiscGrid(radii=(0.5,), angular_samples=8)


def hypothesis(f, alpha):
    """(holds, 1 - weighted tail sum) as check_ratio_bounds reports them."""
    rep = check_ratio_bounds(f, alpha, 1, SMALL_GRID)
    return rep.applicable, rep.hypothesis_margin


def test_dk_examples_and_validation():
    # d_k is the coefficient weight at k >= 1
    assert coeff_weight(0.0, 1) == 1.0
    assert coeff_weight(0.0, 17) == 1.0
    assert coeff_weight(1.0, 1) == 3.0
    assert coeff_weight(1.0, 2) == 4.0
    assert coeff_weight(0.5, 3) == 3.0
    for k in range(1, 12):
        assert coeff_weight(2.0, k + 1) > coeff_weight(2.0, k)
    with pytest.raises(ValueError):
        check_ratio_bounds(POLE, 1.0, 0, SMALL_GRID)
    with pytest.raises(ValueError):
        check_ratio_bounds(POLE, -0.5, 1, SMALL_GRID)


def test_hypothesis_examples():
    assert hypothesis(POLE, 1.0) == (True, 1.0)
    holds, margin = hypothesis(eq16_function(1.0, 2), 1.0)
    assert holds
    assert abs(margin) < 1e-12
    # a_1 twice the admissible size: weighted sum is exactly 2
    f = LaurentFunction([0.0, 2.0 / coeff_weight(1.0, 1)])
    holds, margin = hypothesis(f, 1.0)
    assert not holds
    assert margin == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hypothesis(POLE, -1.0)


def test_hypothesis_ignores_constant_term():
    f = LaurentFunction([5.0, 0.1])
    holds, margin = hypothesis(f, 1.0)
    assert holds
    assert margin == pytest.approx(1.0 - 3.0 * 0.1, abs=1e-15)


def test_hypothesis_matches_naive_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 4.0))
        coeffs = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 0.1
        f = LaurentFunction(coeffs.tolist())
        _, margin = hypothesis(f, alpha)
        naive = oracles.naive_hypothesis_sum(f.coeffs, alpha)
        assert 1.0 - margin == pytest.approx(naive, abs=1e-12)


def test_eq16_function_structure():
    f = eq16_function(1.0, 2)
    assert f.coeffs == (0j, 0j, complex(-0.25))
    holds, margin = hypothesis(f, 1.0)
    assert holds and abs(margin) < 1e-12
    with pytest.raises(ValueError):
        eq16_function(1.0, 0)


def test_eq16_ratio_near_one_on_real_axis():
    # g_f/g_s collapses to 1 - z^{n+1}/d_n; at z = 0.9999 and (alpha, n) =
    # (1, 2) that is 1 - 0.9999^3/4
    f = eq16_function(1.0, 2)
    z = complex(0.9999)
    ratio = complex(eval_g(f, z)) / complex(eval_g(partial_sum(f, 2), z))
    assert ratio.real == pytest.approx(1.0 - 0.9999**3 / 4.0, abs=1e-12)
    assert ratio.real == pytest.approx(0.750075, abs=1e-6)


def test_pole_ratios_are_exactly_one():
    report = check_ratio_bounds(POLE, 1.0, 3, GRID)
    assert report.applicable
    assert report.excluded_points == 0
    assert report.observed_min_f_over_s == 1.0
    assert report.observed_min_s_over_f == 1.0
    assert min(report.margins) >= 0
    assert report.d_n == 5.0
    assert report.bound_f_over_s == pytest.approx(0.8)
    assert report.bound_s_over_f == pytest.approx(5.0 / 6.0)


def test_report_bounds_at_order_one():
    report = check_ratio_bounds(POLE, 1.0, 1, GRID)
    assert report.bound_f_over_s == pytest.approx(2.0 / 3.0)
    assert report.bound_s_over_f == pytest.approx(3.0 / 4.0)


def test_inapplicable_when_hypothesis_fails():
    f = LaurentFunction([0.0, 2.0 / 3.0])  # weighted sum 2 at alpha = 1
    report = check_ratio_bounds(f, 1.0, 1, GRID)
    assert not report.applicable
    assert report.hypothesis_margin == pytest.approx(-1.0, abs=1e-12)


def test_random_members_satisfy_both_bounds():
    rng = np.random.default_rng(32)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 3.0))
        n = int(rng.integers(1, 7))
        f = sample_hypothesis_member(alpha, rng)
        report = check_ratio_bounds(f, alpha, n, GRID)
        assert report.applicable
        m1, m2 = report.margins
        assert m1 >= -1e-9
        assert m2 >= -1e-9
        assert min(report.margins) >= 0 or min(m1, m2) > -1e-9


def test_sharp_function_margin_shrinks_towards_boundary():
    f = eq16_function(1.0, 2)
    gaps = []
    for rmax in (0.9, 0.99, 0.999, 0.9999):
        grid = DiscGrid.with_rmax(rmax, angular_samples=256)
        report = check_ratio_bounds(f, 1.0, 2, grid)
        assert report.applicable and min(report.margins) >= 0
        gaps.append(report.margins[0])
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx((1.0 - 0.9999**3) / 4.0, abs=1e-9)


def test_degenerate_points_are_excluded_but_counted():
    # g of this function vanishes at all eight angular nodes of radius 1/2,
    # so that whole ring is excluded while the inner ring still reports
    f = LaurentFunction((0j,) * 7 + (complex(-256.0),))
    grid = DiscGrid(radii=(0.4, 0.5), angular_samples=8)
    report = check_ratio_bounds(f, 1.0, 1, grid)
    assert report.excluded_points == 8
    assert not report.applicable
    with pytest.raises(ValueError, match="degenerate"):
        check_ratio_bounds(f, 1.0, 1, DiscGrid(radii=(0.5,), angular_samples=8))


def test_order_validation():
    with pytest.raises(ValueError):
        check_ratio_bounds(POLE, 1.0, 0, GRID)


def test_report_properties_standalone():
    report = RatioBoundReport(
        n=2,
        d_n=4.0,
        bound_f_over_s=0.75,
        bound_s_over_f=0.8,
        observed_min_f_over_s=0.76,
        observed_min_s_over_f=0.79,
        hypothesis_margin=0.1,
        applicable=True,
        excluded_points=0,
    )
    assert report.margins == (pytest.approx(0.01), pytest.approx(-0.01))
    assert not min(report.margins) >= 0
