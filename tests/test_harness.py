import json

import numpy as np
import pytest

from merostar.classes import Status, coeff_sufficient_me
from merostar.extremal import remark1_witness, theorem21_extremal
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
    save_series,
)
from merostar.reporting import CheckStatus
from merostar.series import DiscGrid, from_coeffs
from merostar.tme import TmeFunction, check_tme_exact

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
    assert v.min_margin > 0


def test_classify_me_sampled_when_certificate_fails():
    # boundary extremal: member on the grid, but its coefficient sum is
    # infinite in the limit and far above 1 at any truncation
    f = theorem21_extremal(2.0)
    certified, _ = coeff_sufficient_me(f, 2.0)
    assert not certified
    v = classify_me(f, 2.0, GRID)
    assert v.status is Status.SAMPLED_MEMBER


def test_classify_me_non_member():
    v = classify_me(from_coeffs([0.0, 3.0]), 1.0, GRID)
    assert v.status is Status.NON_MEMBER


def test_classify_tme_member_and_refuted():
    v = classify_tme(TmeFunction(()), 1.0)
    assert v.status is Status.CERTIFIED_MEMBER
    assert v.min_margin == 1.0
    bad = TmeFunction((0.9,))
    v = classify_tme(bad, 1.0)
    assert v.status is Status.NON_MEMBER
    assert v.witness is not None and v.witness.imag == 0.0


def test_classify_tme_indeterminate_for_hairline_violation():
    # exceeds the exact test by 1e-10 but every sampled margin stays
    # positive, so the refutation scan cannot confirm it
    m = (1.0 + 1e-10) / 3.0
    v = classify_tme(TmeFunction((m,)), 1.0)
    assert v.status is Status.INDETERMINATE
    assert v.min_margin < 0


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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("thm9.9")


def test_suite_params_are_coerced_and_echoed():
    report = run_suite("rem1", {"n": 17.0, "alpha": 0.1})
    assert report.inputs["n"] == 17
    assert isinstance(report.inputs["n"], int)
    # n = 17 sits exactly at the rejection threshold for alpha = 0.1, so the
    # non-membership check is inapplicable rather than asserted
    by_name = {c.name: c for c in report.checks}
    assert by_name["witness_not_starlike"].status is CheckStatus.INAPPLICABLE


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


def test_thm32_suite_rejects_bad_delta():
    with pytest.raises(ValueError, match="delta"):
        run_suite("thm3.2", {"delta": 2.0, "count": 5})


def test_rem1_suite_rejects_alpha_out_of_range():
    with pytest.raises(ValueError, match="alpha"):
        run_suite("rem1", {"alpha": 1.5})


# ---------------------------------------------------------------------- IO

def test_series_roundtrip(tmp_path):
    f = from_coeffs([0.1, 0.2 - 0.3j])
    path = tmp_path / "series.json"
    save_series(f, path)
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
    with pytest.raises(ValueError, match="magnitudes"):
        load_tme(path)
    path.write_text('{"coeffs": [[0, 0], [0.1, 0]]}')
    with pytest.raises(ValueError, match="index 1"):
        load_tme(path)


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
