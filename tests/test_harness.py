import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merostar import harness
from merostar.classes import Status, check_me, coeff_bound, coeff_sufficient_me, coeff_weight
from merostar.extremal import remark1_witness, theorem21_extremal, theorem23_extremal
from merostar.harness import (
    SUITE_IDS,
    classify_me,
    classify_tme,
    load_series,
    load_tme,
    run_suite,
    sample_certified_member,
    sample_hypothesis_member,
    sample_tme_member,
    sample_wild_function,
    save_report,
)
from merostar.partial_sums import eq16_function
from merostar.reporting import CheckResult, CheckStatus, VerificationReport
from merostar.series import DiscGrid, LaurentFunction, partial_sum, serialize_coeffs
from merostar.tme import TmeFunction, check_tme_exact
from merostar.tolerances import EXACT_TOL

import oracles

GRID = DiscGrid.default()


# ---------------------------------------------------------------- samplers

def test_certified_sampler_always_certifies():
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = sample_certified_member(float(rng.uniform(0, 4)), rng)
        certified, _ = coeff_sufficient_me(f, 0.0)  # weakest weights
        assert certified
        assert len(f.coeffs) <= 41


def test_certified_sampler_respects_its_own_alpha():
    rng = np.random.default_rng(6)
    for _ in range(40):
        alpha = float(rng.uniform(0, 4))
        f = sample_certified_member(alpha, rng)
        certified, margin = coeff_sufficient_me(f, alpha)
        assert certified
        assert margin >= -1e-12


def test_hypothesis_sampler_leaves_index_zero_empty():
    rng = np.random.default_rng(7)
    for _ in range(40):
        alpha = float(rng.uniform(0, 4))
        f = sample_hypothesis_member(alpha, rng)
        assert f.coeffs[0] == 0
        holds, margin = coeff_sufficient_me(f, alpha)  # a_0 = 0, so this is the hypothesis
        assert holds and margin >= -1e-12


def test_tme_sampler_members_and_boundary():
    rng = np.random.default_rng(8)
    for i in range(40):
        alpha = float(rng.uniform(0, 4))
        f = sample_tme_member(alpha, rng, boundary=(i % 2 == 0))
        member, margin = check_tme_exact(f, alpha)
        assert member
        if i % 2 == 0:
            assert abs(margin) < 1e-12
        else:
            assert margin >= -1e-12


def test_wild_sampler_is_reproducible():
    a = sample_wild_function(np.random.default_rng(9))
    b = sample_wild_function(np.random.default_rng(9))
    c = sample_wild_function(np.random.default_rng(10))
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs


# ------------------------------------------------------------- classifiers

def test_classify_me_certificate_upgrade():
    v = classify_me(remark1_witness(3), 1.0, GRID)
    assert v.status is Status.CERTIFIED_MEMBER
    assert (v.min_margin, v.witness, v.samples_checked, v.proof) == (0.0, None, 4, "coefficients")


def test_classify_me_sampled_when_certificate_fails():
    # boundary extremal: member on the grid, but its coefficient sum is
    # infinite in the limit and far above 1 at any truncation
    f = theorem21_extremal(2.0)
    certified, _ = coeff_sufficient_me(f, 2.0)
    assert not certified
    v = classify_me(f, 2.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER


def test_classify_me_non_member():
    v = classify_me(LaurentFunction([0.0, 3.0]), 1.0, GRID)
    assert v.status is Status.NON_MEMBER


def test_classify_tme_member_and_refuted():
    v = classify_tme(TmeFunction(()), 1.0)
    assert v.status is Status.CERTIFIED_MEMBER
    assert v.min_margin == 1.0
    bad = TmeFunction((0.9,))
    v = classify_tme(bad, 1.0)
    assert v.status is Status.NON_MEMBER
    assert v.witness is None and v.proof == "coefficients"


def test_classify_tme_refutes_a_hairline_violation():
    # exceeds the exact test by 1e-10: refuted by the exact test alone, and
    # no sampled point stands as a witness (every axis margin is positive)
    m = (1.0 + 1e-10) / 3.0
    v = classify_tme(TmeFunction((m,)), 1.0)
    assert v.status is Status.NON_MEMBER
    assert v.min_margin == pytest.approx(-1.0e-10, rel=1e-5)
    assert v.witness is None


# ------------------------------------------------------------------ suites

SMALL_PARAMS = {
    "thm2.1": {},
    "thm2.2": {"count": 20},
    "thm2.3": {"count": 20},
    "rem1": {},
    "rem2": {"count": 10},
    "thm3.1": {"count": 12},
    "thm3.2": {"count": 20},
    "thm4.1": {"count": 10},
    "cor1": {"count": 20},
    "cor2": {"count": 20},
    "thm4.2": {"count": 10},
}


@pytest.mark.parametrize("name", [s for s in SUITE_IDS if s != "all"])
def test_each_suite_passes(name):
    report = run_suite(name, SMALL_PARAMS[name])
    assert report.suite == name
    assert report.passed, [c.to_dict() for c in report.checks if c.status is CheckStatus.FAIL]
    assert report.checks
    assert report.runtime_ms >= 0
    assert all(c.status is not CheckStatus.FAIL for c in report.checks)


@pytest.mark.parametrize("seed", [572710, 101457])
def test_thm31_gamma_bound_holds_at_rounding_prone_seeds(seed):
    # the sampled-minus-exact phase gap was once the difference of two margins
    # near 1, which rounded one ulp past bounds of about 1e-17 at these seeds
    report = run_suite("thm3.1", {"seed": seed})
    assert report.passed, [c.to_dict() for c in report.checks if c.status is CheckStatus.FAIL]


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_thm23_member_bounds_are_the_per_coefficient_bounds(seed):
    # the suite takes coeff_bound and abs of a whole member at once; its
    # least gap must keep the bits of the per-coefficient scalar loop
    alpha, count = 1.5, 200  # the suite's defaults
    rng = np.random.default_rng(seed + 23)
    for _ in range(50):  # the root-identity draws come first
        rng.uniform(0.0, 4.0), rng.integers(1, 17)
    members = [sample_certified_member(alpha, rng) for _ in range(count)]
    expected = min(coeff_bound(alpha, k) - abs(c) for f in members for k, c in enumerate(f.coeffs))
    checks = {c.name: c for c in run_suite("thm2.3", {"seed": seed}).checks}
    assert checks["certified_members_respect_bounds"].margin.hex() == expected.hex()


def _checks(name, params):
    return {c.name: c for c in run_suite(name, params).checks}


def test_thm23_root_identity_keeps_a_nan():
    # alpha * n overflows, so the given pair's identity is NaN: the claim fails
    # although every random draw holds; the largest alpha a suite takes, just
    # below 2^1018, overflows from n = 65 on, with the sampler's weights finite
    checks = _checks("thm2.3", {"alpha": math.nextafter(2.0**1018, 0), "n": 65})
    assert checks["root_identity"].status is CheckStatus.FAIL
    assert math.isnan(checks["root_identity"].margin)
    # where only m * m overflows, coeff_bound is 1/m and the identity holds
    assert run_suite("thm2.3", {"alpha": 1e200, "n": 2, "count": 20}).passed


@pytest.mark.parametrize("name, params", [("thm2.1", {"alpha": 1e15}), ("thm4.2", {"n": 3000, "count": 10})])
def test_sharp_constants_pass_where_the_radial_scans_failed(name, params):
    # the scans' "gaps shrink" test fell below rounding at these parameters
    report = run_suite(name, params)
    assert report.passed, [c.to_dict() for c in report.checks if c.status is CheckStatus.FAIL]


@pytest.mark.parametrize("alpha", [1e12, 1e13, 1e15, math.nextafter(2.0**53, 0)])
def test_thm22_certificate_is_not_necessary_below_two_to_the_53(alpha):
    # the extremal's coefficient sum exceeds 1 by about 2/alpha, below EXACT_TOL
    # from about 2e12 on: the claim reads that deficit, not the relaxed flag
    check = _checks("thm2.2", {"alpha": alpha, "count": 5})["certificate_is_not_necessary"]
    assert check.status is CheckStatus.PASS
    assert -2.0 / alpha - 2 * math.ulp(1.0) < check.margin < 0  # rounded to ulps of 1


@given(st.floats(1.0, 2.0**54, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_thm21_boundary_values_match_the_mp_oracle(alpha):
    # the ME margin at z = -1 and the STARLIKE(0) margin at z = +-1, in 50 digits
    # on the extremal's float coefficients, sit at the sharp constants, and the
    # suite's float deviations agree with the oracle's
    coeffs = theorem21_extremal(alpha).coeffs
    me = abs(oracles.mp_class_margin(coeffs, "me", alpha, -1))
    targets = ((1, 1.0 - 1.0 / alpha), (-1, 1.0 + 1.0 / alpha))
    order = max(abs(oracles.mp_class_margin(coeffs, "starlike", 0.0, z) - t) for z, t in targets)
    checks = _checks("thm2.1", {"alpha": alpha})
    for name, exact in (
        ("extremal_margin_vanishes_on_negative_axis", me),
        ("order_functional_boundary_limit", order),
    ):
        assert checks[name].status is CheckStatus.PASS
        assert exact < EXACT_TOL
        assert abs(checks[name].margin - exact) < 1e-14, (name, checks[name].margin, exact)


@given(st.floats(0.0, 10.0), st.integers(1, 5000))
@settings(max_examples=40, deadline=None)
def test_thm42_boundary_values_match_the_mp_oracle(alpha, n):
    f = eq16_function(alpha, n)
    assert partial_sum(f, n) == LaurentFunction(())  # S_n = 1/z, so f/S_n is g
    d = coeff_weight(alpha, n)
    turn = np.exp(1j * np.pi / (n + 1))
    f_over_s = oracles.mp_class_margin(f.coeffs, "me", 0.0, 1)  # Re g
    # g = 1 + a z^{n+1} has z g' = (n + 1)(g - 1), so Re(1/g) = 1 - Re(z g'/g)/(n + 1),
    # and Re(z g'/g) is 1 less the STARLIKE(0) margin
    s_over_f = 1.0 - (1.0 - oracles.mp_class_margin(f.coeffs, "starlike", 0.0, turn)) / (n + 1)
    exact = max(abs(f_over_s - (1.0 - 1.0 / d)), abs(s_over_f - d / (1.0 + d)))
    check = _checks("thm4.2", {"alpha": alpha, "n": n, "count": 1})["sharp_function_attains_bounds"]
    assert check.status is CheckStatus.PASS
    assert exact < EXACT_TOL
    # Horner's rounding over n + 2 coefficients at |z| = 1, with |1/g| <= 1
    assert abs(check.margin - exact) < 4 * (n + 2) * 2.0**-53, (check.margin, exact)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("thm9.9")


def test_suite_params_are_coerced_and_echoed():
    report = run_suite("rem1", {"n": np.int64(17), "alpha": np.float64(0.1)})
    assert report.inputs["n"] == 17
    assert type(report.inputs["n"]) is int and type(report.inputs["alpha"]) is float
    # n = 17 sits exactly at the rejection threshold for alpha = 0.1, so the
    # non-membership check is inapplicable rather than asserted
    by_name = {c.name: c for c in report.checks}
    assert by_name["witness_not_starlike"].status is CheckStatus.INAPPLICABLE


@pytest.mark.parametrize(
    "name, params, shown",
    [
        ("thm2.2", {"count": "2"}, "count must be an integer, not str: '2'"),
        ("thm2.2", {"count": b"2"}, "count must be an integer, not bytes: b'2'"),
        ("thm2.2", {"count": 2.7}, "count must be an integer, got 2.7"),
        ("thm2.2", {"seed": float("inf")}, "seed must be an integer, got inf"),
        ("thm2.2", {"seed": float("nan")}, "seed must be an integer, got nan"),
        ("rem1", {"n": 17.5}, "n must be an integer, got 17.5"),
        ("thm3.1", {"gamma_samples": "256"}, "gamma_samples must be an integer, not str: '256'"),
        ("all", {"seed": float("inf")}, "seed must be an integer, got inf"),
        ("all", {"seed": "7"}, "seed must be an integer, not str: '7'"),
    ],
)
def test_suite_integer_params_refuse_text_and_fractions(name, params, shown):
    with pytest.raises(ValueError) as err:
        run_suite(name, params)
    assert str(err.value) == shown


def test_suite_integer_params_take_numpy_ints_and_refuse_integral_floats():
    report = run_suite("thm2.2", {"count": np.int64(3), "seed": np.uint8(4)})
    assert report.inputs["count"] == 3 and report.inputs["seed"] == 4
    assert all(type(report.inputs[key]) is int for key in ("count", "seed"))
    assert run_suite("all", {"seed": np.int64(0)}).inputs["seed"] == 0
    # an integral float is not an integer, as for DiscGrid's angle count
    for seed, shown in ((2.0, "2.0"), (np.float64(4.0), "np.float64(4.0)")):
        with pytest.raises(ValueError) as err:
            run_suite("rem1", {"seed": seed})
        assert str(err.value) == f"seed must be an integer, got {shown}"


def test_suite_determinism_modulo_runtime():
    a = run_suite("thm2.2", {"count": 10, "seed": 3}).to_dict()
    b = run_suite("thm2.2", {"count": 10, "seed": 3}).to_dict()
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


def test_suite_seed_changes_draws():
    a = run_suite("thm2.2", {"count": 10, "seed": 3}).to_dict()
    b = run_suite("thm2.2", {"count": 10, "seed": 4}).to_dict()
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a != b


def test_an_undecided_sample_makes_rem2_indeterminate(monkeypatch):
    real = harness.check_remark2
    calls = []

    def one_undecided(f, grid):
        calls.append(f)
        v = real(f, grid)
        # the first call checks the extremal, the next ten the certified members
        return replace(v, status=Status.INDETERMINATE) if len(calls) == 3 else v

    monkeypatch.setattr(harness, "check_remark2", one_undecided)
    by_name = {c.name: c for c in run_suite("rem2", {"count": 10}).checks}
    assert len(calls) == 12
    assert by_name["holds_for_extremal"].status is CheckStatus.PASS
    members = by_name["holds_for_certified_members"]
    assert members.status is CheckStatus.INDETERMINATE
    assert members.detail == "1 of 10 samples within margin tolerance"
    assert by_name["check_has_power"].status is CheckStatus.PASS


# the parameters "all" gives each suite, in order, when run with seed 5
ALL_AT_SEED_5 = {
    "thm2.1": {"alpha": 2.0},
    "thm2.2": {"alpha": 1.0, "count": 200, "seed": 5},
    "thm2.3": {"alpha": 1.5, "n": 2, "count": 200, "seed": 5},
    "rem1": {"alpha": 0.1, "n": 18},
    "rem2": {"alpha": 1.0, "count": 50, "seed": 5},
    "thm3.1": {"alpha": 1.0, "count": 200, "seed": 5, "gamma_samples": 256},
    "thm3.2": {"alpha": 1.0, "eps": 0.5, "count": 200, "seed": 5},
    "thm4.1": {"alpha": 2.0, "n": 3, "count": 100, "seed": 5},
    "cor1": {"alpha": 1.0, "count": 200, "seed": 5},
    "cor2": {"alpha": 1.0, "count": 200, "seed": 5},
    "thm4.2": {"alpha": 1.0, "n": 2, "count": 200, "seed": 5},
}


def test_all_runs_each_suite_once_with_its_defaults_and_the_seed(monkeypatch):
    calls = []

    def recorder(sid):
        def suite(p, grid):
            calls.append((sid, dict(p)))
            return [CheckResult("first", CheckStatus.PASS, 1.0), CheckResult("second", CheckStatus.FAIL)]

        return suite

    for sid, (_, defaults) in list(harness._SUITES.items()):
        monkeypatch.setitem(harness._SUITES, sid, (recorder(sid), defaults))
    report = run_suite("all", {"seed": 5})
    assert calls == list(ALL_AT_SEED_5.items())
    assert SUITE_IDS == (*ALL_AT_SEED_5, "all")
    assert report.suite == "all"
    assert report.inputs == {"seed": 5, **ALL_AT_SEED_5}
    assert [c.name for c in report.checks] == [
        f"{sid}/{name}" for sid in ALL_AT_SEED_5 for name in ("first", "second")
    ]
    assert report.checks[0] == CheckResult("thm2.1/first", CheckStatus.PASS, 1.0)
    assert not report.passed

    calls.clear()
    assert run_suite("all").inputs["seed"] == 0
    assert [p.get("seed") for _, p in calls] == [
        None if "seed" not in p else 0 for p in ALL_AT_SEED_5.values()
    ]


def test_all_rejects_every_parameter_but_the_seed():
    with pytest.raises(ValueError, match="takes only seed, not count, n$"):
        run_suite("all", {"seed": 2, "n": 3, "count": 1, "alpha": None})
    # a single suite still accepts keys it does not use
    assert run_suite("rem1", {"seed": 2}).passed


@pytest.mark.parametrize("name", ["rem1", "all"])
def test_a_misspelt_parameter_is_refused_by_name(name):
    # it used to be echoed into the report's inputs while the suite ran on its default
    with pytest.raises(ValueError) as err:
        run_suite(name, {"cont": 3, "seed": 1})
    assert str(err.value) == "cont is not a suite parameter; choose from alpha, n, count, seed, gamma_samples, eps, delta"


# every check of "all" at seed 7, in report order
ALL_CHECKS = (
    "thm2.1/exp_separates_mf_from_me",
    "thm2.1/square_separates_starlike_from_mf",
    "thm2.1/extremal_in_me",
    "thm2.1/extremal_margin_vanishes_on_negative_axis",
    "thm2.1/inclusion_chain_at_order",
    "thm2.1/order_functional_boundary_limit",
    "thm2.2/certificate_implies_grid_margins",
    "thm2.2/boundary_members_sum_exactly_one",
    "thm2.2/certificate_is_not_necessary",
    "thm2.3/root_identity",
    "thm2.3/extremal_in_me",
    "thm2.3/certified_members_respect_bounds",
    "rem1/witness_in_me_alpha1",
    "rem1/witness_not_starlike",
    "rem2/holds_for_extremal",
    "rem2/holds_for_certified_members",
    "rem2/check_has_power",
    "thm3.1/status_agreement_with_direct_check",
    "thm3.1/kernel_coeffs_match_fourier_oracle",
    "thm3.1/kernel_identity",
    "thm3.1/gamma_discretization_within_bound",
    "thm3.2/premise",
    "thm3.2/neighborhood_members",
    "thm3.2/inflated_radius_refuted",
    "thm4.1/sharp_functions_margin_zero",
    "thm4.1/scaled_sharp_function_refuted",
    "thm4.1/members_in_me",
    "thm4.1/scaled_members_refuted",
    "cor1/decompose_recompose_roundtrip",
    "cor1/convex_combinations_are_members",
    "cor1/extreme_points_decompose_to_unit_weight",
    "cor2/bounds_hold_for_members",
    "cor2/equality_function_attains_lower_at_r",
    "cor2/equality_function_attains_upper_at_ir",
    "thm4.2/ratio_bounds_hold_for_members",
    "thm4.2/sharp_function_attains_bounds",
    "thm4.2/nonzero_a0_observation",
)


def test_all_reports_each_claim_once():
    report = run_suite("all", {"seed": 7})
    assert tuple(c.name for c in report.checks) == ALL_CHECKS
    assert len(set(ALL_CHECKS)) == 37
    assert {c.name for c in report.checks if c.status is CheckStatus.INDETERMINATE} == {
        "thm4.2/nonzero_a0_observation"
    }
    assert report.passed


@pytest.mark.parametrize("deviation, status", [
    (0.0, CheckStatus.PASS),
    (np.nextafter(EXACT_TOL, 0.0), CheckStatus.PASS),
    (EXACT_TOL, CheckStatus.FAIL),
    (math.nan, CheckStatus.FAIL),
    (math.inf, CheckStatus.FAIL),
])
def test_within_passes_strictly_below_its_tolerance(deviation, status):
    check = harness._within("identity", deviation)
    assert check.status is status
    assert check.margin is deviation
    assert harness._within("identity", 1e-10, 1e-10).status is CheckStatus.FAIL


def test_thm32_suite_rejects_bad_delta():
    with pytest.raises(ValueError, match="delta"):
        run_suite("thm3.2", {"delta": 2.0, "count": 5})


def test_rem1_suite_rejects_alpha_out_of_range():
    with pytest.raises(ValueError, match="alpha"):
        run_suite("rem1", {"alpha": 1.5})


# ---------------------------------------------------------------------- IO

def test_series_roundtrip(tmp_path):
    f = LaurentFunction([0.1, 0.2 - 0.3j])
    path = tmp_path / "series.json"
    path.write_text(json.dumps(serialize_coeffs(f)))
    assert load_series(path).coeffs == f.coeffs


def test_load_series_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"coeffs": [[0.1]]}')
    with pytest.raises(ValueError, match="coeffs"):
        load_series(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="coeffs"):
        load_series(path)
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_series(path)


def test_load_tme_accepts_both_shapes(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"magnitudes": [0.1, 0.0, 0.05]}')
    assert load_tme(path).magnitudes == (0.1, 0.0, 0.05)
    path.write_text('{"coeffs": [[0, 0], [-0.1, 0]]}')
    assert load_tme(path).magnitudes == (0.1,)
    path.write_text('{"magnitudes": ["x"]}')
    with pytest.raises(ValueError, match=r"magnitudes\[0\] must be a number, not str: 'x'"):
        load_tme(path)
    path.write_text('{"coeffs": [[0, 0], [0.1, 0]]}')
    with pytest.raises(ValueError, match="index 1"):
        load_tme(path)


def test_save_report_writes_non_finite_margins_as_null(tmp_path):
    checks = (
        CheckResult("uncertified", CheckStatus.FAIL, -math.inf, None, "certificate failed"),
        CheckResult("no_samples", CheckStatus.PASS, math.inf),
        CheckResult("undefined", CheckStatus.FAIL, math.nan, 0.5j),
    )
    path = tmp_path / "report.json"
    save_report(VerificationReport("thm2.2", {"count": 3}, checks, 0), path)
    data = json.loads(path.read_text(), parse_constant=pytest.fail)
    assert [c["margin"] for c in data["checks"]] == [None, None, None]
    assert [c["detail"] for c in data["checks"]] == [
        "certificate failed; margin -inf written as null",
        "margin inf written as null",
        "margin nan written as null",
    ]


def test_save_report_refuses_nan_inputs_before_writing(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        save_report(VerificationReport("rem1", {"alpha": math.nan}, (), 0), path)
    assert not path.exists()


def test_save_report_stable_json(tmp_path):
    report = run_suite("rem1", {})
    path = tmp_path / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    assert data == report.to_dict()
    assert list(data) == sorted(data)
    assert data["suite"] == "rem1"
    assert data["passed"] is True
    assert {c["status"] for c in data["checks"]} <= {
        "pass",
        "fail",
        "inapplicable",
        "indeterminate",
    }


@pytest.mark.parametrize("seed", [0, 7, 3])
def test_circle_refutations_report_their_closed_form_margins(seed):
    # a circle refutation reports its least circle sample, which here is a
    # closed form: 1/z + 3z has Re g - Re(z g') = 1 - 3 at z = 1 (rem2); the
    # spike 10 delta* z^2 has the ME(1) margin 1 - 10 at z = i (thm3.2); and
    # the 1.01-scaled sharp function has 1 - 1.01 at z = 1, its exact margin (thm4.1)
    reports = [run_suite(suite, {"seed": seed}) for suite in ("rem2", "thm3.2", "thm4.1")]
    checks = {c.name: c for report in reports for c in report.checks}
    assert checks["check_has_power"].margin == pytest.approx(-2.0, abs=1e-12)
    assert checks["inflated_radius_refuted"].margin == pytest.approx(-9.0, abs=1e-12)
    sharp = checks["scaled_sharp_function_refuted"]
    assert sharp.margin == pytest.approx(-0.01, abs=1e-12)
    assert sharp.detail == f"exact margin {sharp.margin:.3e}"
    for name in ("check_has_power", "inflated_radius_refuted", "scaled_sharp_function_refuted"):
        assert checks[name].status is CheckStatus.PASS and 0.5 <= abs(checks[name].witness) < 1.0


def _direct_tail(alpha, n):
    # T = sum_{m >= m0} 2 d^m (1 + alpha m n), summed term by term
    d, m0 = coeff_bound(alpha, n - 1) / 2.0, 65 // n + 1  # degree 64 keeps the powers mn - 1 <= 64
    terms = itertools.takewhile(lambda m: d**m > 1e-300, itertools.count(m0))
    return math.fsum(2.0 * d**m * (1.0 + alpha * m * n) for m in terms)


@pytest.mark.parametrize(
    "params", [{"n": 16}, {"alpha": 0.3, "n": 2}, {"alpha": 0.01, "n": 1}, {"alpha": 1e-3, "n": 100}]
)
def test_thm23_extremal_is_in_me_up_to_its_dropped_tail(params):
    # the truncation of (1 + d z^n)/(1 - d z^n) dips below 0 on the circle by at
    # most the weighted dropped tail T = sum_{m >= m0} 2 d^m (1 + alpha m n),
    # also where T is too large for the suite to claim anything from it
    alpha, n = params.get("alpha", 1.5), params["n"]
    v = check_me(theorem23_extremal(alpha, n), alpha, GRID)
    assert v.min_margin >= -1e-9 - _direct_tail(alpha, n)


@pytest.mark.parametrize("params", [{"n": 16}, {"alpha": 0.3, "n": 2}])
def test_thm23_extremal_in_me_passes_within_a_small_dropped_tail(params):
    alpha, n = params.get("alpha", 1.5), params["n"]
    check = _checks("thm2.3", {**params, "count": 5})["extremal_in_me"]
    assert check.status is CheckStatus.PASS, check
    tail = float(check.detail.removeprefix("within the dropped tail T = "))
    assert tail <= 1e-6
    assert check.margin >= -1e-9 - tail
    assert tail == pytest.approx(_direct_tail(alpha, n), rel=1e-3)


@pytest.mark.parametrize("alpha, n", [(0.01, 1), (1e-3, 1), (1e-3, 100)])
def test_thm23_extremal_is_inapplicable_where_its_dropped_tail_dwarfs_the_margin(alpha, n):
    # at alpha = 0.01, n = 1 the truncation's margin is about -24 and T about 276:
    # a check within T shows nothing, so the claim is inapplicable and names T
    checks = _checks("thm2.3", {"alpha": alpha, "n": n, "count": 5})
    check = checks["extremal_in_me"]
    assert check.status is CheckStatus.INAPPLICABLE
    assert check.margin is None and check.witness is None
    prefix, _, rest = check.detail.partition("T = ")
    assert prefix == "the dropped tail " and rest.endswith(" exceeds 1e-6")
    tail = float(rest.removesuffix(" exceeds 1e-6"))
    assert tail > 1e-6 and tail == pytest.approx(_direct_tail(alpha, n), rel=1e-3)
    assert all(c.status is CheckStatus.PASS for name, c in checks.items() if name != "extremal_in_me")


def test_thm23_extremal_is_inapplicable_where_its_pole_is_on_the_circle():
    # alpha = 0 gives d = 1: (1 + z^n)/(1 - z^n) has its pole on the circle, and no
    # truncation is in ME(0) up to a finite tail
    check = _checks("thm2.3", {"alpha": 0.0, "count": 5})["extremal_in_me"]
    assert check.status is CheckStatus.INAPPLICABLE
    assert check.margin is None and "pole" in check.detail and "T is infinite" in check.detail
    assert run_suite("thm2.3", {"alpha": 0.0, "count": 5}).passed
