import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merostar import series
from merostar import tme as tme_module
from merostar.classes import ClassSpec, Family, Status, check_me, class_margins, coeff_weight
from merostar.harness import sample_tme_member
from merostar.series import DiscGrid, LaurentFunction, eval_g
from merostar.tme import (
    TmeFunction,
    check_distortion,
    check_tme_exact,
    decompose,
    distortion_bounds,
    recompose,
    sharp_function,
)
from merostar.tolerances import EXACT_TOL, MARGIN_TOL

import hostile
import oracles

GRID = DiscGrid.default()
POLE = TmeFunction(())


def test_type_validation():
    TmeFunction((0.1, 0.0, 0.2))
    with pytest.raises(ValueError, match="1"):
        TmeFunction((0.1, -0.2))
    with pytest.raises(ValueError):
        TmeFunction((float("nan"),))
    with pytest.raises(ValueError, match="1"):
        TmeFunction((0.1, 10**400))  # an integer beyond float range


def test_laurent_conversion_roundtrip():
    f = TmeFunction((0.1, 0.0, 0.05))
    lf = f.to_laurent()
    assert lf.coeffs == (0j, -0.1 + 0j, 0j, -0.05 + 0j)
    assert TmeFunction.from_laurent(lf).magnitudes == f.magnitudes
    assert TmeFunction.from_laurent(LaurentFunction([])).magnitudes == ()
    # trailing zeros of the tail are stripped, as recompose strips them
    assert TmeFunction.from_laurent(LaurentFunction((0j, -0.1 + 0j, 0j))) == TmeFunction((0.1,))


def test_from_laurent_rejects_wrong_shape():
    with pytest.raises(ValueError, match="constant"):
        TmeFunction.from_laurent(LaurentFunction([0.5]))
    with pytest.raises(ValueError, match="2"):
        TmeFunction.from_laurent(LaurentFunction([0.0, -0.1, 0.3]))
    with pytest.raises(ValueError):
        TmeFunction.from_laurent(LaurentFunction([0.0, 0.1j]))


def test_exact_membership_examples():
    assert check_tme_exact(POLE, 3.0) == (True, 1.0)
    member, margin = check_tme_exact(sharp_function(1.0, 2), 1.0)
    assert member
    assert abs(margin) < 1e-12
    member, margin = check_tme_exact(TmeFunction((0.9,)), 1.0)
    assert not member
    assert margin == pytest.approx(1.0 - 0.9 * 3.0, abs=1e-12)


def test_weighted_sum_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 4.0))
        f = sample_tme_member(alpha, rng)
        naive = oracles.naive_hypothesis_sum(f.to_laurent().coeffs, alpha)
        assert 1.0 - check_tme_exact(f, alpha)[1] == pytest.approx(naive, abs=1e-12)


def test_sharp_functions_sit_on_the_boundary():
    for alpha in (0.5, 1.0, 2.0):
        for n in range(1, 21):
            f = sharp_function(alpha, n)
            assert f.magnitudes[n - 1] == 1.0 / coeff_weight(alpha, n)
            member, margin = check_tme_exact(f, alpha)
            assert member
            assert abs(margin) < 1e-12
    with pytest.raises(ValueError):
        sharp_function(1.0, 0)


def test_inflated_sharp_function_is_refuted_exactly_and_on_axis():
    for alpha in (0.5, 1.0, 2.0):
        f = sharp_function(alpha, 3)
        bad = TmeFunction(tuple(1.01 * m for m in f.magnitudes))
        member, _ = check_tme_exact(bad, alpha)
        assert not member
        lf = bad.to_laurent()
        v = check_me(lf, alpha, GRID)
        assert v.status is Status.NON_MEMBER and v.proof == "circle"
        # the least circle sample is z = 1, where the margin is exactly 1 - 1.01;
        # the witness is one radial step inward, on the positive real axis
        assert v.min_margin == pytest.approx(-0.01, abs=1e-12)
        assert v.witness.imag == 0.0 and 0.5 <= v.witness.real < 1.0
        assert oracles.mp_me_margin(lf.coeffs, alpha, v.witness) < -MARGIN_TOL


def test_exact_test_consistent_with_grid_sampling():
    rng = np.random.default_rng(22)
    for _ in range(30):
        alpha = float(rng.uniform(0.0, 3.0))
        f = sample_tme_member(alpha, rng)
        member, _ = check_tme_exact(f, alpha)
        assert member
        margins = class_margins(ClassSpec(Family.ME, alpha), f.to_laurent(), GRID.points)
        assert float(np.min(margins)) >= -MARGIN_TOL


def test_decompose_examples():
    assert decompose(POLE, 1.0) == (1.0,)
    w = decompose(sharp_function(1.0, 2), 1.0)
    assert w[0] == 0.0
    assert w[2] == pytest.approx(1.0, abs=1e-12)
    assert all(x == 0 for i, x in enumerate(w) if i not in (0, 2))
    with pytest.raises(ValueError, match="exceeds"):
        decompose(TmeFunction((0.9,)), 1.0)


def test_decompose_recompose_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(60):
        alpha = float(rng.uniform(0.0, 4.0))
        f = sample_tme_member(alpha, rng, boundary=bool(rng.integers(0, 2)))
        back = recompose(decompose(f, alpha), alpha)
        a, b = f.magnitudes, back.magnitudes
        n = max(len(a), len(b))
        a = a + (0.0,) * (n - len(a))
        b = b + (0.0,) * (n - len(b))
        assert max((abs(x - y) for x, y in zip(a, b)), default=0.0) < 1e-12


@pytest.mark.parametrize("mags", [(), (0.0,), (5e-324, 0.0, 1e-300), (0.25, 1e308, 0.0, 1.0)])
def test_to_laurent_has_the_bits_of_minus_m_plus_0j(mags):
    # one numpy pass gives each tail coefficient the bits of -m + 0j: 0.0 gives 0j, not -0j
    got, want = TmeFunction(mags).to_laurent().coeffs, (0j,) + tuple(-m + 0j for m in mags)
    assert [(c.real.hex(), c.imag.hex()) for c in got] == [(c.real.hex(), c.imag.hex()) for c in want]


def test_recompose_examples_and_validation():
    assert recompose([1.0], 2.0).magnitudes == ()
    f = recompose([0.0, 0.5, 0.5], 1.0)
    assert f.magnitudes[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert f.magnitudes[1] == pytest.approx(1.0 / 8.0, abs=1e-15)
    member, margin = check_tme_exact(f, 1.0)
    assert member
    assert abs(margin) < 1e-12
    with pytest.raises(ValueError, match=r"weights\[1\] must be finite and >= 0, got -0.1"):
        recompose([0.5, -0.1, 0.6], 1.0)
    with pytest.raises(ValueError, match=r"weights\[0\] is beyond float range"):
        recompose([10**400], 1.0)  # an integer beyond float range, as in TmeFunction
    with pytest.raises(ValueError):
        recompose([0.5, 0.4], 1.0)  # sums to 0.9
    with pytest.raises(ValueError):
        recompose([], 1.0)


def test_text_is_not_a_magnitude_or_a_weight():
    # float() parses text, so a str would iterate into digits and '0.5' into 0.5
    for bad in ("12", b"12"):
        with pytest.raises(ValueError, match="magnitudes must be a sequence of numbers"):
            TmeFunction(bad)
        with pytest.raises(ValueError, match="weights must be a sequence of numbers"):
            recompose(bad, 1.0)
    with pytest.raises(ValueError, match=r"magnitudes\[1\] must be a number, not str"):
        TmeFunction((0.1, "0.2"))
    with pytest.raises(ValueError, match=r"weights\[0\] must be a number, not str"):
        recompose(["0.5", "0.5"], 1.0)
    with pytest.raises(ValueError, match=r"weights\[1\] must be a number, not bytes"):
        recompose([0.5, b"0.5"], 1.0)


# what a careless caller puts where a magnitude belongs, beyond hostile.number:
# signed zeros, strings and bytes, numpy scalars and None
loose_magnitude = st.one_of(
    hostile.number,
    st.just(-0.0),
    st.text(max_size=3),
    st.binary(max_size=2),
    st.sampled_from(["0.5", "-0.0", "1e400", "nan"]),
    st.builds(np.float64, st.floats()),
    st.none(),
)


@given(st.one_of(hostile.coeffs, st.lists(loose_magnitude, max_size=8), st.text(max_size=4), st.binary(max_size=4)))
@settings(max_examples=300, deadline=None)
def test_magnitude_check_is_the_entrywise_check(values):
    try:
        expected = oracles.entrywise_nonnegative(values, "magnitudes")
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            TmeFunction(values)
        assert str(raised.value) == str(exc)
        return
    got = TmeFunction(values).magnitudes
    assert all(type(m) is float for m in got)
    bits = lambda ms: [(m, math.copysign(1, m)) for m in ms]  # -0.0 stays -0.0
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("alpha", [-0.5, -5.0, -1.0, float("nan"), float("inf")])
def test_recompose_rejects_a_bad_order_by_name(alpha):
    # at alpha = -0.5 the weight of a_1 is 0, and at -5 every tail weight is negative
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        recompose([0.0, 1.0], alpha)
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        recompose([1.0], alpha)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_random_convex_combinations_are_members(raw):
    total = math.fsum(raw)
    if total <= 0:
        return
    weights = [w / total for w in raw]
    f = recompose(weights, 1.5)
    member, margin = check_tme_exact(f, 1.5)
    assert member
    assert margin >= -1e-12


def test_distortion_bounds_formula():
    lower, upper = distortion_bounds(0.0, 0.5)
    assert (lower, upper) == (1.5, 2.5)
    with pytest.raises(ValueError):
        distortion_bounds(1.0, 0.0)
    with pytest.raises(ValueError):
        distortion_bounds(1.0, 1.0)
    with pytest.raises(ValueError):
        distortion_bounds(-1.0, 0.5)
    with pytest.raises(ValueError, match="alpha must be a number, not str"):
        distortion_bounds("1", 0.5)  # float() would parse it


def test_pole_is_interior_to_distortion_bounds():
    # |f| = 1/r for the bare pole, so kappa is the whole spread 1/(1 + 2 alpha)
    assert check_distortion(POLE, 1.0) == 1.0 / 3.0


def test_equality_function_attains_both_bounds():
    for alpha in (0.5, 1.0, 2.0):
        f = sharp_function(alpha, 1)
        lf = f.to_laurent()
        for r in (0.3, 0.6, 0.9):
            lower, upper = distortion_bounds(alpha, r)
            at_r = abs(complex(eval_g(lf, r))) / r
            at_ir = abs(complex(eval_g(lf, 1j * r))) / r
            assert abs(at_r - lower) < 1e-9
            assert abs(at_ir - upper) < 1e-9


def test_random_members_satisfy_distortion_bounds():
    rng = np.random.default_rng(24)
    for _ in range(40):
        alpha = float(rng.uniform(0.0, 3.0))
        f = sample_tme_member(alpha, rng)
        assert check_distortion(f, alpha) >= -EXACT_TOL


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from(["member", "boundary", "pole", "sharp"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_distortion_slack_is_at_least_r_kappa(alpha, kind, seed, r, t):
    rng = np.random.default_rng(seed)
    if kind == "pole":
        f = POLE
    elif kind == "sharp":
        f = sharp_function(alpha, int(rng.integers(1, 31)))
    else:
        f = sample_tme_member(alpha, rng, boundary=kind == "boundary")
    kappa = check_distortion(f, alpha)
    assert kappa >= -EXACT_TOL
    # the 50-digit slack at z = r, where the lower bound is tightest, and at
    # z = r e^{it}; kappa is a correctly rounded sum whose spread 1/(1 + 2 alpha)
    # rounds twice, so it may sit up to 2 ulps of 1 above the exact kappa
    for angle in (0.0, t):
        slack = oracles.mp_distortion_slack(f.magnitudes, alpha, r, angle)
        assert slack >= r * kappa - 2 * math.ulp(1.0), (angle, slack, r * kappa)
    # no grid sample has less slack than r kappa on its ring, up to the samples'
    # rounding: a slack is a difference of numbers up to 1/r + r <= 10.1, rounded
    # to ulps of up to 1.8e-15
    sampled = oracles.grid_distortion_margins(f.magnitudes, alpha, GRID)
    radii = np.repeat(np.asarray(GRID.radii), GRID.angular_samples)
    assert np.all(sampled >= radii * kappa - 4 * math.ulp(10.1))


def test_check_distortion_evaluates_no_series_on_a_grid(monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a series was evaluated on the grid")

    # tme's own binding too: a by-name import would not see the patch of series
    monkeypatch.setattr(tme_module, "ring_transform", no_evaluation, raising=False)
    for name in ("ring_transform", "ring_values", "eval_g"):
        monkeypatch.setattr(series, name, no_evaluation)
    # 1/(1 + 2) - 1/(1 + 3): the spread less the one magnitude of f_2
    assert check_distortion(sharp_function(1.0, 2), 1.0) == pytest.approx(1.0 / 12.0, abs=1e-16)


def test_check_distortion_rejects_nonmembers():
    with pytest.raises(ValueError, match="member"):
        check_distortion(TmeFunction((0.9,)), 1.0)


def test_refutation_needs_boundary_radii():
    # barely-inflated boundary function: its ME(1) margin 1 - 1.0001 r^2 at z = r
    # is positive on every radius of the default grid, but one proved radial
    # step from the least circle sample z = 1 finds a witness beyond the
    # outermost radius 0.9999, from the circle's 2048 samples alone
    alpha = 1.0
    f = sharp_function(alpha, 1)
    bad = TmeFunction(tuple(1.0001 * m for m in f.magnitudes))
    member, _ = check_tme_exact(bad, alpha)
    assert not member
    lf = bad.to_laurent()
    assert (class_margins(ClassSpec(Family.ME, alpha), lf, np.array(GRID.radii)) > 0).all()
    v = check_me(lf, alpha, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert v.witness.imag == 0.0 and GRID.radii[-1] < v.witness.real < 1.0
    assert oracles.mp_me_margin(lf.coeffs, alpha, v.witness) < -MARGIN_TOL
    assert v.samples_checked == GRID.angular_samples


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=1.01, max_value=2.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_scaled_boundary_members_are_refuted_inside_the_disc(alpha, scale, seed):
    # Theorem 4.1's "only if": a boundary member scaled by s > 1 fails the
    # exact test, and check_me refutes it on the circle with a witness inside
    # the disc whose margin, summed in 50 digits, is negative there too
    f = sample_tme_member(alpha, np.random.default_rng(seed), boundary=True)
    bad = TmeFunction(tuple(scale * m for m in f.magnitudes))
    assert not check_tme_exact(bad, alpha)[0]
    lf = bad.to_laurent()
    v = check_me(lf, alpha, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert abs(v.witness) < 1.0
    assert oracles.mp_me_margin(lf.coeffs, alpha, v.witness) < -MARGIN_TOL
