"""The unit-circle decision: the circle grid, the stacked kernel, and the
bound behind a "circle" verdict, checked against interval arithmetic and
50-digit evaluation inside the disc."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from merostar import classes, cli, convolution, harness
from merostar.classes import (
    _REMARK2,
    ClassSpec,
    Family,
    Rule,
    Status,
    _circle_bound,
    _coeff_sums,
    check_class,
    check_me,
    check_mf,
    check_starlike,
    decide,
)
from merostar.convolution import thm31_verdicts
from merostar.extremal import (
    mf_not_me_witness,
    remark1_witness,
    starlike_not_mf_witness,
    theorem21_extremal,
)
from merostar.harness import (
    sample_certified_member,
    sample_hypothesis_member,
    sample_tme_member,
    sample_wild_function,
)
from merostar.partial_sums import check_ratio_bounds
from merostar.series import DiscGrid, LaurentFunction, partial_sum, ring_transform, ring_values
from merostar.tme import sharp_function
from merostar.tolerances import MARGIN_TOL

import hostile
import oracles

GRID = DiscGrid.default()
FAMILIES = (Family.ME, Family.MF, Family.STARLIKE)


def test_circle_is_the_only_grid_with_radius_one(tmp_path, capsys):
    circle = DiscGrid.circle(64)
    assert circle.radii == (1.0,) and len(circle) == 64
    assert np.array_equal(circle.points, np.exp(1j * circle.thetas))
    for build in (lambda: DiscGrid((0.5, 1.0)), lambda: DiscGrid.with_rmax(1.0), lambda: DiscGrid.circle(4)):
        with pytest.raises(ValueError):
            build()
    series = tmp_path / "f.json"
    series.write_text(json.dumps({"coeffs": []}))
    argv = ["check", "--class", "me", "--alpha", "1", "--series", str(series), "--grid-rmax", "1"]
    assert cli.main(argv) == 2
    assert "rmax" in capsys.readouterr().err


def test_ring_values_on_the_circle_match_direct_sums():
    f = sample_wild_function(np.random.default_rng(1), 40)
    circle = DiscGrid.circle(64)
    g, zgp = ring_values(f, circle)
    for j in range(0, 64, 7):
        z = circle.points[j]
        assert g[j] == pytest.approx(oracles.naive_eval_g(f.coeffs, z), abs=1e-12)
        assert zgp[j] == pytest.approx(z * oracles.naive_eval_g_prime(f.coeffs, z), abs=1e-12)


def test_ring_transform_stacks_rows_without_changing_their_bits():
    rng = np.random.default_rng(2)
    long, short = sample_wild_function(rng, 60).g_coeffs, np.array([1.0, 0.3, -0.1j])
    for grid in (GRID, DiscGrid.circle(2048), DiscGrid.with_rmax(0.9, 256)):
        stacked = ring_transform([long, short], grid)
        assert np.array_equal(stacked[0], ring_transform([long], grid)[0])
        assert np.array_equal(stacked[0], ring_values(LaurentFunction(tuple(long[1:])), grid)[0])
        # the short row joins the long row's transform instead of Horner's rule
        assert np.allclose(stacked[1], ring_transform([short], grid)[0], atol=1e-14)


def test_interval_oracle_confirms_the_circle_lower_bound():
    # 64 angles, so the bound is loose enough for interval arithmetic to
    # reach it on arcs of modest length
    rng = np.random.default_rng(5)
    grid = DiscGrid(angular_samples=64)
    proved = {family: 0 for family in FAMILIES}
    for i in range(1500):
        family = FAMILIES[i % 3]
        if proved[family] == 70:
            continue
        base = sample_wild_function(rng, 4)
        f = LaurentFunction(tuple(float(rng.uniform(0.05, 0.6)) * c for c in base.coeffs))
        alpha = float(rng.uniform(0.0, 0.9))
        rule = ClassSpec(family, alpha).rule
        verdict, margins, _ = oracles.decide_recorded(rule, alpha, f, grid)
        if not (verdict.is_member and verdict.proof == "circle"):
            continue
        m = len(margins)  # the circle that proved it, at M or 4M angles
        g = ring_values(f, DiscGrid.circle(m))[0]
        lipschitz, rounding = _circle_bound(rule, alpha, f, _coeff_sums(f), g, m)
        bound = verdict.min_margin - lipschitz * math.pi / m - rounding
        assert bound > 0
        assert oracles.iv_circle_min_at_least(f.coeffs, family.value, alpha, bound), (f, family, alpha)
        # no winding number is taken: the proof itself leaves g no zero inside
        assert family is Family.ME or oracles.zero_free_inside(f.g_coeffs, 1.0), (f, family, alpha)
        proved[family] += 1
    assert all(count == 70 for count in proved.values()), proved


coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=300))
@settings(max_examples=200, deadline=None)
def test_coeff_sums_are_the_per_power_sums(coeffs):
    # one reduction over the five rows of one (5, n) buffer has the bits of
    # five separate sums, also past the 128 terms where numpy's pairwise
    # summation starts to split a row
    f = LaurentFunction(coeffs)
    sums = _coeff_sums(f)
    assert all(type(s) is float for s in sums)
    assert oracles.same_bits(np.array(sums), np.array(oracles.per_power_coeff_sums(f.g_coeffs)))


# the length of classes._coeff_sums' weight table, beyond which a series gets its own rows
SUM_CAP = classes._SUM_WEIGHTS.shape[1]
NONFINITE_OR_HUGE = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 8.99e307, 0.0])


@st.composite
def g_rows(draw):
    """Coefficients of g of any length up to 300 or at the table's cap and one
    either side, at a drawn scale (up to overflowing sums), with a few entries
    inf, NaN or near the top of float range."""
    n = draw(st.one_of(st.integers(0, 300), st.sampled_from([SUM_CAP - 1, SUM_CAP, SUM_CAP + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = (rng.normal(size=n) + 1j * rng.normal(size=n)) * draw(st.sampled_from([1.0, 1e-300, 1e150, 1e303]))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        g[draw(st.integers(0, n - 1))] = complex(draw(NONFINITE_OR_HUGE), draw(NONFINITE_OR_HUGE))
    return g


@given(g_rows())
@example(np.array([1e308 + 0j] * 4))
@example(np.array([8.99e307 + 0j, 1e308 + 0j]))
@example(np.full(50, 1e200 + 1e200j))
@settings(max_examples=300, deadline=None)
def test_coeff_sums_have_the_bits_of_the_eight_call_sums(g):
    # the weight table's one product per term gives every sum the bits of the
    # rows the eight ufunc calls wrote, below, at and beyond the table's cap
    sums = _coeff_sums(SimpleNamespace(g_coeffs=g))  # _coeff_sums reads g's coefficients alone
    assert list(map(float.hex, sums)) == list(map(float.hex, oracles.eight_call_coeff_sums(g)))


@given(
    st.lists(coefficient, max_size=12),
    st.floats(0.01, 1.0),
    st.sampled_from(FAMILIES),
    st.floats(0.0, 0.95),
    st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_no_circle_proved_member_is_refuted_inside(raw, scale, family, alpha, polar):
    f = LaurentFunction(tuple(scale * c / (n + 1) for n, c in enumerate(raw)))
    verdict = check_class(ClassSpec(family, alpha), f, GRID)
    if not (verdict.is_member and verdict.proof == "circle"):
        return
    points = [r * complex(math.cos(t), math.sin(t)) for r, t in polar]
    points += [(1.0 - 10.0**-k) * verdict.witness for k in (3, 6, 9)]
    for z in points:
        assert oracles.mp_class_margin(f.coeffs, family.value, alpha, z) > 0, z


@given(hostile.coeffs, st.sampled_from(FAMILIES), st.floats(0.0, 0.99))
@settings(max_examples=30, deadline=None)
def test_hostile_series_get_a_circle_verdict_only_from_finite_values(coeffs, family, alpha):
    try:
        f = LaurentFunction(coeffs)
    except ValueError:
        return  # not finite or beyond float range: refused on construction
    with np.errstate(all="ignore"):
        try:
            verdict, margins, _ = oracles.decide_recorded(ClassSpec(family, alpha).rule, alpha, f, GRID)
        except ValueError:
            return  # no point of the evaluation that decides has a defined margin
        values = ring_values(f, DiscGrid.circle(GRID.angular_samples))
    if not np.isfinite(values).all():
        assert verdict.proof is None
    if verdict.proof == "circle":
        assert np.isfinite(margins).all()
        mp = oracles.mp_class_margin(f.coeffs, family.value, alpha, verdict.witness)
        if verdict.is_member:
            assert mp > 0
        else:
            assert abs(verdict.witness) < 1.0 and mp < 0


def test_circle_refutations_of_a_zero_inside_are_sound():
    on_circle = []

    @given(
        st.floats(0.05, 0.9),
        st.floats(0.0, 2 * math.pi),
        st.lists(coefficient, max_size=4),
        st.floats(0.0, 1.0),
        st.sampled_from((Family.MF, Family.STARLIKE)),
        st.floats(0.0, 0.95),
    )
    @settings(max_examples=80, deadline=None)
    def refutation_has_a_witness_inside(radius, angle, raw, scale, family, alpha):
        # g = (1 - z/z0) h with h(0) = 1: z g'/g has a pole at z0 inside the disc
        z0 = radius * complex(math.cos(angle), math.sin(angle))
        h = [1.0] + [scale * c / (n + 2) for n, c in enumerate(raw)]
        f = LaurentFunction(tuple(np.convolve([1.0, -1.0 / z0], h)[1:]))
        verdict, margins, points = oracles.decide_recorded(ClassSpec(family, alpha).rule, alpha, f, GRID)
        on_circle.append(verdict.proof == "circle")
        if verdict.proof != "circle":
            return
        assert verdict.status is Status.NON_MEMBER
        # the circle holds the least sample, and the witness lies inward on its ray
        least = points[np.argmin(margins)]
        assert margins.min() == verdict.min_margin
        assert 0.5 <= abs(verdict.witness) < 1.0
        assert abs(verdict.witness / least - abs(verdict.witness)) < 1e-12
        assert oracles.mp_class_margin(f.coeffs, family.value, alpha, verdict.witness) < -MARGIN_TOL

    refutation_has_a_witness_inside()
    # the circle decides most draws, so the property cannot hold vacuously
    assert sum(on_circle) > 0.9 * len(on_circle), (sum(on_circle), len(on_circle))


def _with_zeros(zeros, raw, scale):
    """The series whose g is h times (1 - z/z0) for each polar (radius, angle)
    z0 of zeros, with h = 1 + sum of scale c_n z^(n+1)/(n+2) zero-free."""
    h = [1.0] + [0.75 * scale * c / (n + 2) for n, c in enumerate(raw)]  # sum |h_k| <= 0.96 over 4 terms
    g = np.array(h, dtype=complex)
    for radius, angle in zeros:
        g = np.convolve([1.0, -1.0 / (radius * complex(math.cos(angle), math.sin(angle)))], g)
    return LaurentFunction(tuple(g[1:]))


polar_zero = lambda radii: st.tuples(radii, st.floats(0.0, 2 * math.pi))
zero_sets = st.one_of(
    st.lists(polar_zero(st.floats(0.05, 0.95)), min_size=1, max_size=2),  # one or two inside
    st.lists(polar_zero(st.floats(1.0, 1.05)), min_size=1, max_size=1),  # on or just outside the circle
    st.just([]),  # zero-free
)


def test_the_circle_bound_needs_no_winding_number(monkeypatch):
    winding_bound = []

    @given(
        zero_sets,
        st.lists(coefficient, max_size=4),
        st.floats(0.0, 1.0),
        st.sampled_from((Family.MF, Family.STARLIKE)),
        st.floats(0.0, 0.95),
        st.sampled_from((64, 256, 2048)),
    )
    @settings(max_examples=300, deadline=None)
    def same_verdict_as_with_the_winding_test(zeros, raw, scale, family, alpha, m):
        f, grid = _with_zeros(zeros, raw, scale), DiscGrid(angular_samples=m)
        rule = ClassSpec(family, alpha).rule
        verdict = decide(rule, alpha, f, grid)
        with monkeypatch.context() as patched:
            patched.setattr(classes, "_circle_bound", oracles.winding_circle_bound)
            reference = decide(rule, alpha, f, grid)
        assert verdict == reference
        g = ring_values(f, DiscGrid.circle(m))[0]
        winding_bound.append(
            oracles.winding_circle_bound(rule, alpha, f, _coeff_sums(f), g, m) is None
            and _circle_bound(rule, alpha, f, _coeff_sums(f), g, m) is not None
        )

    same_verdict_as_with_the_winding_test()
    # draws with a zero inside now take the bounded path, so the property is not vacuous
    assert sum(winding_bound) > 0.1 * len(winding_bound), (sum(winding_bound), len(winding_bound))


def test_every_circle_refutation_has_a_proved_witness_inside():
    refuted = []

    @given(
        zero_sets,
        st.lists(coefficient, max_size=4),
        st.floats(0.0, 4.0),
        st.sampled_from(("me", "mf", "starlike", "rem2")),
        st.floats(0.0, 0.95),
    )
    @settings(max_examples=300, deadline=None)
    def witness_is_one_proved_step_inward(zeros, raw, scale, family, alpha):
        f = _with_zeros(zeros, raw, scale)
        if family == "rem2":  # Remark 2's margin ignores alpha; check_remark2 passes 1
            rule, alpha = _REMARK2, 1.0
        else:
            rule = ClassSpec(Family(family), alpha).rule
        verdict, margins, points = oracles.decide_recorded(rule, alpha, f, GRID)
        refuted.append(verdict.proof == "circle" and not verdict.is_member)
        if not refuted[-1]:
            return
        # min_margin is the least sample of the circle that decided, and nothing
        # is evaluated at the witness: its margin is proved below -MARGIN_TOL
        assert np.allclose(np.abs(points), 1.0)
        assert verdict.min_margin == margins.min()
        assert 0.5 <= abs(verdict.witness) < 1.0
        assert oracles.mp_class_margin(f.coeffs, family, alpha, verdict.witness) < -MARGIN_TOL

    witness_is_one_proved_step_inward()
    # zeros inside and large scales refute often, so the property is not vacuous
    assert sum(refuted) > 0.3 * len(refuted), (sum(refuted), len(refuted))


def test_thm21_extremal_is_refuted_by_its_value_at_one():
    # g = (1 + cz)/(1 - cz) with c = sqrt(2) - 1 (alpha = 1) has g(1) = z g'(1) =
    # 1 + sqrt(2), so its ME(2) margin at z = 1 is -(1 + sqrt(2)); the dropped
    # tail 2 c^66 is far below the rounding of the circle samples
    v = check_me(theorem21_extremal(1.0, 64), 2.0, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert v.min_margin == pytest.approx(-(1.0 + math.sqrt(2.0)), abs=1e-12)
    assert v.witness.imag == 0.0 and 0.5 <= v.witness.real < 1.0
    assert v.samples_checked == GRID.angular_samples


def test_overflow_and_huge_degree_fall_back_to_the_grid():
    overflow = LaurentFunction([0.0] * 5 + [1e307])  # z g' overflows on the circle
    v, margins, points = oracles.decide_recorded(ClassSpec(Family.ME, 0.5).rule, 0.5, overflow, GRID)
    assert v.proof is None and v.status is Status.NON_MEMBER
    assert v.samples_checked == 2 * GRID.angular_samples  # the circle, then the outermost ring
    assert np.array_equal(points, DiscGrid(GRID.radii[-1:], GRID.angular_samples).points)
    assert v.min_margin == np.nanmin(margins)
    # degree 10^5: the Lipschitz bound is far beyond what 4 x 2048 angles resolve
    huge = LaurentFunction((0j,) * 100_000 + (1e-6 + 0j,))
    for family, alpha in ((Family.ME, 1.0), (Family.MF, 0.5), (Family.STARLIKE, 0.5)):
        v = check_class(ClassSpec(family, alpha), huge, GRID)
        assert v.proof is None


def test_ties_and_zeros_of_g_fall_back_to_the_grid():
    # sharp extremals touch 0 on the circle
    assert check_me(theorem21_extremal(2.0), 2.0, GRID).proof is None
    tme_sharp = sharp_function(1.0, 3).to_laurent()
    assert check_me(tme_sharp, 1.0, GRID).proof is None
    # (1 - z)^2 / z: g vanishes at z = 1 on the circle
    v = check_starlike(starlike_not_mf_witness(), 0.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER and v.proof is None


def _unaliased(f) -> int:
    """M', the least M 2^k that is at least the number of coefficients of g:
    M' samples of a polynomial of at most M' coefficients do not alias."""
    m = GRID.angular_samples
    while m < len(f.g_coeffs):
        m *= 2
    return m


def _ring_fallback_is_the_grid_fold(rule, alpha, f) -> bool:
    """Decide f, recording every grid it evaluates, and hold each grid to one
    radius. Where nothing on the circle decides f, hold the status of the
    walk from the grid's outermost ring inward to the fold of all 12 rings at
    M' angles; where the walk stops at that outermost ring with finite
    margins and the minimum principle puts the least margin on it (the rule
    does not divide by g, or g has no zero inside the ring), hold the least
    margin and witness to the 12-ring fold's too. Whether the fallback ran."""
    grids = []

    def recording(f, at):
        grids.append(at)
        return ring_values(f, at)

    grid = DiscGrid(GRID.radii, _unaliased(f))
    outer = DiscGrid(grid.radii[-1:], grid.angular_samples)
    with np.errstate(all="ignore"):
        try:
            verdict = decide(rule, alpha, f, GRID, recording)
        except ValueError:  # no margin on the grid is defined
            verdict = None
        assert [at.radii for at in grids if len(at.radii) != 1] == []
        if verdict is None:
            with pytest.raises(ValueError, match="degenerate"):
                oracles.grid_fold(rule, alpha, f, grid)
            return True
        if verdict.proof is not None:
            return False
        status, least, witness = oracles.grid_fold(rule, alpha, f, grid)
        ring = rule.margins(alpha, *ring_values(f, outer))
    assert verdict.samples_checked == sum(map(len, grids))
    assert verdict.witness in grid.points
    assert verdict.status.value == status
    superharmonic = not rule.divides or oracles.zero_free_inside(f.g_coeffs, outer.radii[0])
    if np.isfinite(ring).all() and superharmonic:
        assert (verdict.min_margin, verdict.witness) == (least, witness)
    return True


def _fallback_catalog():
    """Ties, zeros of g on and inside the circle, overflow and degree 10^5,
    as (rule, alpha, series)."""
    me, mf, st_ = (lambda a, family=family: ClassSpec(family, a).rule for family in FAMILIES)
    cases = []
    for alpha in (1.0, 1.5, 2.0, 3.0, 5.0):
        order = 1.0 - 1.0 / alpha
        for degree in (4, 8, 16, 64, 256):
            f = theorem21_extremal(alpha, degree)
            cases += [(me(alpha), alpha, f), (mf(order), order, f), (st_(order), order, f), (_REMARK2, 1.0, f)]
    for alpha in (0.5, 1.0, 2.0):
        cases += [(me(alpha), alpha, sharp_function(alpha, n).to_laurent()) for n in (1, 2, 3, 7, 20)]
    for n in range(1, 25):
        cases += [(me(1.0), 1.0, remark1_witness(n)), (st_(0.1), 0.1, remark1_witness(n))]
    rng = np.random.default_rng(3)
    for i in range(300):
        alpha = (0.5, 1.0, 2.0)[i % 3]
        cases.append((me(alpha), alpha, sample_tme_member(alpha, rng, boundary=True).to_laurent()))
    # g = (1 - z/z0)(1 + 0.2 z - 0.1i z^2), with its zero z0 inside, on or near the circle
    zeros = (0.5, -0.9, 0.3j, 0.99, 1.0, 1j, complex(math.cos(0.3), math.sin(0.3)))
    with_zero = [LaurentFunction(tuple(np.convolve([1.0, -1.0 / z0], [1.0, 0.2, -0.1j])[1:])) for z0 in zeros]
    for rule in (me, mf, st_):
        for alpha in (0.0, 0.3):
            cases += [(rule(alpha), alpha, f) for f in (starlike_not_mf_witness(), *with_zero)]
    for coeffs in ([0.0] * 5 + [1e307], [1.7e308, 0.8e308], [0.0] * 12 + [1e307] * 2, [0.0] * 20 + [1.5e307] * 20):
        cases += [(me(1.0), 1.0, LaurentFunction(coeffs)), (me(0.0), 0.0, LaurentFunction(coeffs))]
    huge = LaurentFunction((0j,) * 100_000 + (1e-6 + 0j,))
    cases += [(me(1.0), 1.0, huge), (mf(0.5), 0.5, huge), (st_(0.5), 0.5, huge)]
    cases += [(me(0.0), 0.0, _aliased()), (me(1.0), 1.0, _aliased_overflow())]
    cases += [(me(2.0), 2.0, _overflow_ring())]
    return cases


def _aliased():
    """g = 1 - (4/t) z^8192 + (2/t^2) z^16384, t = 0.999^8192: every sample
    at M or 4M angles sees z^8192 as a positive real, which makes the ME(0)
    margin 5.2e6 at radius 0.9999 and -1 at 0.999."""
    t = 0.999**8192
    coeffs = np.zeros(16384)
    coeffs[[8191, 16383]] = -4.0 / t, 2.0 / t**2
    return LaurentFunction(coeffs)


def _aliased_overflow():
    """g = 1 + 1e308 z + 8e304 z^2049: at M angles z g' folds both powers into
    one frequency, 1e308 r + 1.64e308 r^2049, which overflows at radius 0.9999
    (every ME(1) margin there is non-finite) but not at 0.999."""
    coeffs = np.zeros(2049)
    coeffs[[0, 2048]] = 1e308, 8e304
    return LaurentFunction(coeffs)


def _overflow_ring():
    """g = 1 + c z with 2 c r above float range at radius 0.9999 but not at
    0.999: every ME(2) margin on the outer ring is -inf."""
    return LaurentFunction([np.finfo(float).max / (2 * 0.9995)])


def test_series_that_alias_or_overflow_on_the_ring_walk_inward_one_ring_at_a_time():
    me = lambda alpha: ClassSpec(Family.ME, alpha).rule
    # (rule, alpha, series, points evaluated)
    cases = (
        # the circle at M and 4M, then the outermost ring at M' = 16 M, which refutes
        (me(0.0), 0.0, _aliased(), 2048 + 8192 + 32768),
        # the circle overflows, then the outermost ring at M' = 2 M, which refutes
        (me(1.0), 1.0, _aliased_overflow(), 2048 + 4096),
        # the circle overflows, then the outermost ring is all -inf, then 0.999 refutes
        (me(2.0), 2.0, _overflow_ring(), 2048 + 2048 + 2048),
    )
    with np.errstate(all="ignore"):
        for rule, alpha, f, evaluated in cases:
            verdict = decide(rule, alpha, f, GRID)
            assert verdict.status is Status.NON_MEMBER and verdict.proof is None
            assert verdict.samples_checked == evaluated
            assert verdict.status.value == oracles.grid_fold(rule, alpha, f, DiscGrid(GRID.radii, _unaliased(f)))[0]


def test_a_sparse_series_that_aliases_on_every_ring_is_refuted():
    # g = 1 + C z^8192 with C = 0.999^-8192: at M or 4M angles every sample sees z^8192
    # as the positive real r^8192, so every margin is positive, yet Re g < 0 at
    # r e^{i pi/8192} for r near 1; M' = 8 M angles see it
    coeffs = np.zeros(8192)
    coeffs[-1] = 0.999**-8192
    f = LaurentFunction(coeffs)
    verdict = check_me(f, 0.0, GRID)
    assert verdict.status is Status.NON_MEMBER and verdict.proof is None
    assert verdict.samples_checked == 2048 + 8192 + 16384
    assert oracles.mp_class_margin(f.coeffs, "me", 0.0, verdict.witness) < -MARGIN_TOL


def test_ring_fallback_is_the_grid_fold_on_ties_zeros_and_overflow():
    fell_back = [_ring_fallback_is_the_grid_fold(rule, alpha, f) for rule, alpha, f in _fallback_catalog()]
    assert sum(fell_back) > 350, (sum(fell_back), len(fell_back))


def _sparse_at_multiples_of_m(entries):
    """g = 1 + sum_k (c_k / 0.999^{kM}) z^{kM}: every sample at M or 4M angles
    sees z^{kM} as the positive real r^{kM}, so the rings' samples alias."""
    m = GRID.angular_samples
    coeffs = np.zeros(max(entries) * m)
    for k, c in entries.items():
        coeffs[k * m - 1] = c / 0.999 ** (k * m)
    return LaurentFunction(coeffs)


# series that the circle leaves undecided: ties of the sharp functions, zeros
# of g on or inside the circle, coefficients near the top of float range, and
# powers that alias on every ring
fallback_case = st.one_of(
    st.builds(
        lambda alpha, degree, family: (
            ClassSpec(family, alpha if family is Family.ME else 1.0 - 1.0 / alpha).rule,
            alpha if family is Family.ME else 1.0 - 1.0 / alpha,
            theorem21_extremal(alpha, degree),
        ),
        st.floats(1.0, 5.0),
        st.integers(1, 300),
        st.sampled_from(FAMILIES),
    ),
    st.builds(
        lambda alpha, seed: (
            ClassSpec(Family.ME, alpha).rule,
            alpha,
            sample_tme_member(alpha, np.random.default_rng(seed), boundary=True).to_laurent(),
        ),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(
        lambda family, alpha, radius, angle, raw: (
            ClassSpec(family, alpha).rule,
            alpha,
            LaurentFunction(
                tuple(np.convolve([1.0, -complex(math.cos(angle), -math.sin(angle)) / radius], [1.0, *raw])[1:])
            ),
        ),
        st.sampled_from(FAMILIES),
        st.floats(0.0, 0.95),
        st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
        st.floats(0.0, 2 * math.pi),
        st.lists(coefficient, max_size=3),
    ),
    st.builds(
        lambda alpha, entries: (
            ClassSpec(Family.ME, alpha).rule,
            alpha,
            LaurentFunction([entries.get(k, 0.0) for k in range(max(entries, default=0) + 1)]),
        ),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.dictionaries(st.integers(0, 60), st.floats(1e305, 1.7e308), max_size=4),
    ),
    st.builds(
        lambda alpha, entries: (ClassSpec(Family.ME, alpha).rule, alpha, _sparse_at_multiples_of_m(entries)),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.dictionaries(st.integers(1, 8), st.floats(-5.0, 5.0), min_size=1, max_size=3),
    ),
)


def test_ring_fallback_is_the_grid_fold_under_hypothesis():
    fell_back = []

    @given(fallback_case)
    @settings(max_examples=200, deadline=None)
    def same_fold(case):
        fell_back.append(_ring_fallback_is_the_grid_fold(*case))

    same_fold()
    # most draws reach the fallback, so the property cannot hold vacuously
    assert sum(fell_back) > 0.25 * len(fell_back), (sum(fell_back), len(fell_back))


def test_a_zero_of_g_inside_is_refuted_on_the_circle():
    # g = 1 - 2z vanishes at 1/2 inside, where z g'/g has a pole. The bound on
    # the circle needs no winding number, as a proved member cannot have a zero
    # inside; the least sample is held to the rounding bound at its own point,
    # and the radial step to the witness keeps |g| away from that zero
    f = LaurentFunction([-2.0])
    for check, family in ((check_mf, "mf"), (check_starlike, "starlike")):
        v = check(f, 0.0, GRID)
        assert v.status is Status.NON_MEMBER and v.proof == "circle"
        assert abs(v.witness) < 1.0
        assert oracles.mp_class_margin(f.coeffs, family, 0.0, v.witness) < -MARGIN_TOL
        assert v.samples_checked == GRID.angular_samples  # the circle alone


def test_circle_refutation_has_an_interior_witness():
    # rem1's witness g = 1 + z^19/20 violates STARLIKE(0.1) most where z^19 = 1,
    # by 19/21 - 0.9 on the circle; the witness is one radial step inside
    f = remark1_witness(18)
    v = check_starlike(f, 0.1, GRID)
    assert v.status is Status.NON_MEMBER and v.proof == "circle"
    assert 0.5 <= abs(v.witness) < 1.0
    assert v.min_margin == pytest.approx(0.9 - 19.0 / 21.0, abs=1e-12)
    assert oracles.mp_class_margin(f.coeffs, "starlike", 0.1, v.witness) < -MARGIN_TOL
    assert v.samples_checked == GRID.angular_samples  # the circle alone


def test_circle_proved_member_reports_its_circle_minimum():
    f = sample_certified_member(1.0, np.random.default_rng(3))
    v = check_me(f, 1.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER and v.proof == "circle"
    assert abs(v.witness) == pytest.approx(1.0, abs=1e-15)
    assert v.samples_checked == GRID.angular_samples
    assert v.min_margin == pytest.approx(oracles.mp_me_margin(f.coeffs, 1.0, v.witness), abs=1e-12)


def test_thm31_verdicts_evaluate_the_circle_once(monkeypatch):
    calls = []
    original = convolution.ring_values

    def counting(f, grid):
        calls.append(len(grid))
        return original(f, grid)

    monkeypatch.setattr(convolution, "ring_values", counting)
    f = sample_certified_member(1.0, np.random.default_rng(4))
    me, kernels = thm31_verdicts(f, 1.0, GRID, 256)
    assert calls == [GRID.angular_samples]
    assert me.proof == kernels.proof == "circle"
    assert me.is_member and kernels.is_member


@pytest.mark.parametrize(
    "f, status, proof",
    [
        (mf_not_me_witness(), Status.NON_MEMBER, "circle"),  # both refuted on the circle alone
        (theorem21_extremal(1.0, 64), Status.SAMPLED_MEMBER, None),  # a tie: the circle, then rho's ring
    ],
)
def test_thm31_verdicts_evaluate_each_grid_once(monkeypatch, f, status, proof):
    grids = []
    original = convolution.ring_values

    def counting(f, grid):
        grids.append(grid)
        return original(f, grid)

    monkeypatch.setattr(convolution, "ring_values", counting)
    me, kernels = thm31_verdicts(f, 1.0, GRID, 256)
    assert me.status is kernels.status is status
    assert me.proof == kernels.proof == proof
    assert len(grids) == len(set(grids)) == (1 if proof == "circle" else 2)


def test_thm31_suite_evaluates_its_gap_member_once(monkeypatch):
    calls = []
    original = harness.ring_values

    def counting(f, grid):
        calls.append(len(grid))
        return original(f, grid)

    monkeypatch.setattr(harness, "ring_values", counting)
    report = harness.run_suite("thm3.1", {"count": 3})
    assert calls == [len(GRID)]
    assert all(c.status.value == "pass" for c in report.checks)


def test_ratio_bounds_take_the_circle_where_both_denominators_are_zero_free():
    rng = np.random.default_rng(6)
    circle = DiscGrid.circle(GRID.angular_samples)
    for _ in range(10):
        f = sample_hypothesis_member(1.0, rng)
        assert sum(map(abs, f.coeffs)) < 1.0
        # both ratios are harmonic on the closed disc: the circle holds their least values
        assert check_ratio_bounds(f, 1.0, 3, GRID) == check_ratio_bounds(f, 1.0, 3, circle)
    heavy = LaurentFunction([0.6, 0.5])  # sum |a_k| >= 1: g may vanish in the disc
    on_grid = check_ratio_bounds(heavy, 1.0, 3, GRID)
    assert on_grid != check_ratio_bounds(heavy, 1.0, 3, circle)
    gf, gs = ring_transform([heavy.g_coeffs, partial_sum(heavy, 3).g_coeffs], GRID)
    assert (on_grid.observed_min_f_over_s, on_grid.observed_min_s_over_f) == (
        float(np.real(gf / gs).min()),
        float(np.real(gs / gf).min()),
    )


def test_check_payload_names_the_proof(tmp_path, capsys):
    def check(coeffs, alpha):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]}))
        code = cli.main(["check", "--class", "me", "--alpha", str(alpha), "--series", str(path)])
        return code, json.loads(capsys.readouterr().out)

    # fails the coefficient certificate (sum 1.15), proved on the circle
    code, payload = check([0.5 + 0j, 0.2 + 0j], 0.5)
    assert (code, payload["status"], payload["proof"]) == (0, "SampledMember", "circle")
    code, payload = check([0.1 + 0j], 1.0)
    assert (payload["status"], payload["proof"]) == ("CertifiedMember", "coefficients")
    # a tie on the circle, outside the certificate: sampled on the grid's outermost ring
    code, payload = check(theorem21_extremal(2.0).coeffs, 2.0)
    assert (code, payload["status"], payload["proof"]) == (0, "SampledMember", None)
    assert payload["samples_checked"] == 2 * 2048  # the circle, then the outermost ring


def _verdict_bits(decision):
    """status, min_margin as float.hex, witness, samples_checked and proof
    of the verdict decision() gives, or the message of its ValueError."""
    try:
        v = decision()
    except ValueError as exc:
        return str(exc)
    witness = None if v.witness is None else (v.witness.real.hex(), v.witness.imag.hex())
    return v.status, v.min_margin.hex(), witness, v.samples_checked, v.proof


UNIT_PHASES = (1.0, -1.0, 1j, -1j, 0.6 + 0.8j)


@st.composite
def fold_cases(draw):
    """(rule, alpha, series, grid) on the default radii at M angles: ME, MF,
    STARLIKE, Remark 2 or thm3.1's kernel rule, for a random series, a tie
    (the thm2.1 extremal or a sharp function at its own order), g with a
    zero on or inside the circle, or coefficients so large that k c_k, the
    ME margin or the coefficient sums overflow."""
    grid = DiscGrid(GRID.radii, draw(st.sampled_from([16, 256, 2048])))
    which = draw(st.sampled_from(["me", "mf", "starlike", "remark2", "kernels"]))
    below_one = which in ("mf", "starlike")
    alpha = draw(st.floats(0.0, 0.95) if below_one else st.floats(0.0, 4.0))
    kind = draw(st.sampled_from(["random", "tie", "zero", "overflow"]))
    if kind == "random":
        scale = draw(st.floats(0.01, 4.0))
        coeffs = [scale * c / (n + 1) for n, c in enumerate(draw(st.lists(coefficient, max_size=40)))]
    elif kind == "tie":
        a, n = draw(st.floats(1.0, 5.0)), draw(st.integers(1, 30))
        f = theorem21_extremal(a, n) if draw(st.booleans()) else sharp_function(a, n).to_laurent()
        coeffs, alpha = f.coeffs, 1.0 - 1.0 / a if below_one else a
    elif kind == "zero":
        # g = (1 - z/z0) h with h(0) = 1 and its zero z0 on or inside the circle
        radius = draw(st.one_of(st.just(1.0), st.floats(0.2, 1.0)))
        z0 = radius * complex(draw(st.sampled_from(UNIT_PHASES)))
        h = [1.0] + [c / (n + 2) for n, c in enumerate(draw(st.lists(coefficient, max_size=4)))]
        coeffs = np.convolve([1.0, -1.0 / z0], h)[1:]
    else:
        coeffs = [0j] * draw(st.integers(1, 30))
        for _ in range(draw(st.integers(1, 3))):
            magnitude = draw(st.floats(1e150, 1.7e308))
            coeffs[draw(st.integers(0, len(coeffs) - 1))] = magnitude * draw(st.sampled_from(UNIT_PHASES))
    if which == "remark2":
        rule, alpha = _REMARK2, 1.0
    elif which == "kernels":
        gamma_samples = draw(st.sampled_from([4, 16, 64]))
        rule = Rule(lambda g, zgp, a: convolution.phase_margins(g, zgp, a, gamma_samples)[1], False)
    else:
        rule = ClassSpec(Family(which), alpha).rule
    return rule, alpha, LaurentFunction(coeffs), grid


def test_decide_gives_the_verdict_of_the_composed_circle_fold():
    seen = set()

    # g = 1 + 0.6 z^4: ME(0) margin 0.4 at least, under L pi/M = 2.4 pi/16, proved at 4M
    @example((ClassSpec(Family.ME, 0.0).rule, 0.0, LaurentFunction([0, 0, 0, 0.6]), DiscGrid(GRID.radii, 16)))
    @given(fold_cases())
    @settings(max_examples=300, deadline=None)
    def same_verdict(case):
        rule, alpha, f, grid = case
        got = _verdict_bits(lambda: decide(rule, alpha, f, grid))
        assert got == _verdict_bits(lambda: oracles.composed_decide(rule, alpha, f, grid))
        if not isinstance(got, str):
            seen.add((got[0], got[4], got[3] == 5 * grid.angular_samples))

    same_verdict()
    # circle proofs either way, a member proved on the refined circle, and the ring walk's verdicts
    assert {
        (Status.SAMPLED_MEMBER, "circle", False),
        (Status.SAMPLED_MEMBER, "circle", True),
        (Status.NON_MEMBER, "circle", False),
        (Status.SAMPLED_MEMBER, None, False),
        (Status.NON_MEMBER, None, False),
    } <= seen, seen
