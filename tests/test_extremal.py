import math

import numpy as np
import pytest

from merostar.classes import (
    ClassSpec,
    Family,
    Status,
    check_me,
    check_mf,
    check_starlike,
    class_margins,
    coeff_bound,
    coeff_sufficient_me,
)
from merostar.extremal import (
    DEFAULT_EXTREMAL_DEGREE,
    mf_not_me_tail_bound,
    mf_not_me_witness,
    remark1_witness,
    starlike_not_mf_witness,
    theorem21_extremal,
    theorem21_tail_bound,
    theorem23_extremal,
    theorem23_tail_bound,
)
from merostar.series import DiscGrid, eval_g, eval_g_prime
from merostar.tolerances import MARGIN_TOL

import oracles

GRID = DiscGrid.default()


def c_of(alpha: float) -> float:
    return math.sqrt(1.0 + alpha * alpha) - alpha


def test_order_sharp_leading_coefficient():
    f = theorem21_extremal(1.0)
    assert f.coeffs[0].real == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-15)
    assert f.coeffs[0].real == pytest.approx(0.828427, abs=1e-6)


def test_order_sharp_coefficients_match_fourier_oracle():
    for alpha in (1.0, 2.0, 3.5):
        f = theorem21_extremal(alpha, degree=40)
        oracle = oracles.fourier_coeffs(oracles.rational_g_thm21(alpha), 16)
        got = np.concatenate(([1.0 + 0j], np.asarray(f.coeffs)))[:16]
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_order_sharp_root_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = float(rng.uniform(1.0, 6.0))
        c = theorem21_extremal(alpha, degree=1).coeffs[0].real / 2.0
        assert c * c + 2.0 * alpha * c - 1.0 == pytest.approx(0.0, abs=1e-12)


def test_order_sharp_rejects_low_alpha():
    with pytest.raises(ValueError):
        theorem21_extremal(0.5)


def test_order_sharp_margin_formula_on_negative_axis():
    alpha = 2.0
    c = c_of(alpha)
    f = theorem21_extremal(alpha, degree=80)
    for r in (0.3, 0.7, 0.95):
        z = -r
        want = (1.0 - c * c * r * r - 2.0 * alpha * c * r) / abs(1.0 - c * z) ** 2
        assert class_margins(ClassSpec(Family.ME, alpha), f, z)[0] == pytest.approx(want, abs=1e-12)


def test_order_sharp_margins_shrink_along_negative_axis():
    f = theorem21_extremal(2.0)
    margins = [class_margins(ClassSpec(Family.ME, 2.0), f, -r)[0] for r in (0.5, 0.9, 0.99, 0.999, 0.9999)]
    assert all(m >= 0 for m in margins)
    assert all(b < a for a, b in zip(margins, margins[1:]))
    v = check_me(f, 2.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER


def test_order_sharp_tail_bound():
    assert theorem21_tail_bound(1.0, 10) == pytest.approx(2.0 * c_of(1.0) ** 12, rel=1e-12)
    assert theorem21_tail_bound(2.0, 10) < theorem21_tail_bound(1.0, 10)
    f = theorem21_extremal(1.0, degree=10)
    # the bound names the first coefficient the truncation dropped
    full = theorem21_extremal(1.0, degree=12)
    assert full.coeffs[11].real == pytest.approx(theorem21_tail_bound(1.0, 10), rel=1e-12)
    assert len(f.coeffs) == 11


def test_bound_sharp_attains_coefficient_bound_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 4.0))
        n = int(rng.integers(1, 17))
        f = theorem23_extremal(alpha, n, degree=max(DEFAULT_EXTREMAL_DEGREE, n))
        assert f.coeffs[n - 1].real == coeff_bound(alpha, n - 1)


def test_bound_sharp_structure_is_sparse():
    f = theorem23_extremal(1.5, 3, degree=20)
    for idx, c in enumerate(f.coeffs):
        if (idx + 1) % 3 == 0:
            assert c.real > 0
        else:
            assert c == 0


def test_bound_sharp_alpha_zero_collapses():
    f = theorem23_extremal(0.0, 4, degree=20)
    assert f.coeffs[3].real == 2.0 == coeff_bound(0.0, 3)


def test_bound_sharp_root_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 5.0))
        n = int(rng.integers(1, 20))
        d = theorem23_extremal(alpha, n, degree=n).coeffs[n - 1].real / 2.0
        assert 1.0 - d * d - 2.0 * alpha * n * d == pytest.approx(0.0, abs=1e-12)


def test_bound_sharp_coefficients_match_fourier_oracle():
    for alpha, n in ((0.5, 1), (1.0, 2), (2.0, 3)):
        f = theorem23_extremal(alpha, n, degree=40)
        oracle = oracles.fourier_coeffs(oracles.rational_g_thm23(alpha, n), 14)
        got = np.concatenate(([1.0 + 0j], np.asarray(f.coeffs)))[:14]
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_bound_sharp_rejects_bad_input():
    with pytest.raises(ValueError):
        theorem23_extremal(1.0, 0)
    with pytest.raises(ValueError):
        theorem23_extremal(-1.0, 2)


def test_exp_tail_bound_is_the_float_quotient_and_never_overflows():
    assert mf_not_me_tail_bound(30) == 1.0 / math.factorial(32)
    # (degree+2)! leaves float range at degree 169
    assert mf_not_me_tail_bound(168) > mf_not_me_tail_bound(169) > mf_not_me_tail_bound(170) > 0.0
    assert mf_not_me_tail_bound(400) == 0.0


def test_bound_sharp_tail_bound_decreases_with_degree():
    bounds = [theorem23_tail_bound(1.0, 2, d) for d in (10, 20, 40)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_remark1_witness_shape_and_certificate():
    f = remark1_witness(1)
    assert f.coeffs == (0j, complex(1.0 / 3.0))
    for n in range(1, 21):
        ok, margin = coeff_sufficient_me(remark1_witness(n), 1.0)
        assert ok
        assert abs(margin) < 1e-12
    with pytest.raises(ValueError):
        remark1_witness(0)


def test_remark1_witness_leaves_starlike_class():
    # n = 18 exceeds (2 - 3*alpha)/alpha = 17 at alpha = 0.1
    v = check_starlike(remark1_witness(18), 0.1, GRID)
    assert v.status is Status.NON_MEMBER
    ok = check_starlike(remark1_witness(17), 0.1, GRID)
    assert ok.status is Status.SAMPLED_MEMBER


def test_exp_witness_coefficients():
    f = mf_not_me_witness()
    assert f.coeffs[0] == 1.0
    assert f.coeffs[1] == 0.5
    assert f.coeffs[2] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert f.truncation_degree == 30
    with pytest.raises(ValueError):
        mf_not_me_witness(5)


def test_exp_witness_separates_classes():
    f = mf_not_me_witness()
    assert check_mf(f, 0.0, GRID).status is Status.SAMPLED_MEMBER
    assert check_me(f, 1.0, GRID).status is Status.NON_MEMBER


def test_square_witness_is_exact_and_separates():
    f = starlike_not_mf_witness()
    assert f.coeffs == (-2 + 0j, 1 + 0j)
    assert eval_g(f, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert check_starlike(f, 0.0, GRID).status is Status.SAMPLED_MEMBER
    assert check_mf(f, 0.0, GRID).status is Status.NON_MEMBER


def test_square_witness_margins_finite_on_default_grid():
    # g = (1-z)^2 has its double zero on the boundary, never on the grid
    f = starlike_not_mf_witness()
    pts = GRID.points
    g = eval_g(f, pts)
    assert float(np.min(np.abs(g))) > 1e-12
    ratio = pts * eval_g_prime(f, pts) / g
    assert np.all(np.isfinite(ratio))
