"""A planted defect per claim: each mutation makes one paper constant wrong by
a stated small factor, and the claim that reads the constant must then fail.

A claim that passes whatever the code computes proves nothing (R. A. DeMillo,
R. J. Lipton and F. G. Sayward, "Hints on test data selection: help for the
practicing programmer", IEEE Computer 11(4), 1978). MUTATIONS maps a claim of
`suite all` to its mutation; observations such as
thm4.2/nonzero_a0_observation have none.
"""

from dataclasses import replace

import pytest

from merostar import classes, convolution, harness, partial_sums, tme
from merostar.harness import run_suite
from merostar.reporting import CheckStatus

SEEDS = (0, 7, 3)


def _spread_too_strong(monkeypatch):
    # Corollary 2's spread r/(1 + 2 alpha) 1% too small, so the bounds
    # 1/r -+ spread that distortion_bounds and check_distortion share tighten
    spread = tme._spread
    monkeypatch.setattr(tme, "_spread", lambda alpha, r: 0.99 * spread(alpha, r))


def _ratio_bounds_too_strong(monkeypatch):
    # Theorem 4.2's lower bounds 1 - 1/d_n and d_n/(1 + d_n) 1% too large
    check = partial_sums.check_ratio_bounds

    def mutated(*args):
        report = check(*args)
        return replace(
            report,
            bound_f_over_s=1.01 * report.bound_f_over_s,
            bound_s_over_f=1.01 * report.bound_s_over_f,
        )

    monkeypatch.setattr(partial_sums, "check_ratio_bounds", mutated)


def _coeff_bound_too_strong(monkeypatch):
    # Theorem 2.3's sharp bound on |a_n| 15% too small, as thm2.3 reads it;
    # certified members come within 0.90-0.94 of the bound at SEEDS, so a 1%
    # error cannot show in certified_members_respect_bounds
    bound = harness.coeff_bound
    monkeypatch.setattr(harness, "coeff_bound", lambda alpha, n: 0.85 * bound(alpha, n))


def _delta_star_too_large(monkeypatch):
    # Theorem 3.2's radius 1/(1 + 2 alpha) 1% too large, as thm3.2 and check_thm32
    # read it: the axis spike delta z then has the ME(1) margin 1 - 3 delta = -0.01
    star = convolution.delta_star
    monkeypatch.setattr(convolution, "delta_star", lambda alpha: 1.01 * star(alpha))


def _phase_gap_too_large(monkeypatch):
    # Theorem 3.1's sampled kernel margins 1.2 times as far above the ME margin as
    # phase_margins gives them, as thm3.1 reads them: its gap/bound ratio is 0.99983,
    # 0.99998 and 0.867 at SEEDS against alpha |z g'| pi^2 / (2 M^2), 1.04 and more after
    margins = harness.phase_margins

    def mutated(*args):
        exact, sampled = margins(*args)
        return exact, exact + 1.2 * (sampled - exact)

    monkeypatch.setattr(harness, "phase_margins", mutated)


def _weight_index_shifted(monkeypatch):
    # the certificate's weight of a_n as 1 + alpha n, the index convention that
    # reporting.DEVIATIONS resolves against, as coeff_term reads it for the certificate; the
    # samplers and sharp_function keep 1 + alpha(n + 1), so boundary sums fall below 1
    monkeypatch.setattr(classes, "coeff_weight", lambda alpha, n: 1.0 + alpha * n)


# claim of suite all -> a mutation that must turn it to FAIL
MUTATIONS = {
    "thm2.3/root_identity": _coeff_bound_too_strong,
    "thm2.3/certified_members_respect_bounds": _coeff_bound_too_strong,
    "cor2/equality_function_attains_lower_at_r": _spread_too_strong,
    "thm4.2/sharp_function_attains_bounds": _ratio_bounds_too_strong,
    "thm3.2/neighborhood_members": _delta_star_too_large,
    "thm3.1/gamma_discretization_within_bound": _phase_gap_too_large,
    "thm2.2/boundary_members_sum_exactly_one": _weight_index_shifted,
    "thm4.1/sharp_functions_margin_zero": _weight_index_shifted,
    "thm4.1/scaled_sharp_function_refuted": _weight_index_shifted,
}


def _check(claim, seed):
    suite, name = claim.split("/")
    return {c.name: c for c in run_suite(suite, {"seed": seed}).checks}[name]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("claim", MUTATIONS)
def test_each_mutation_fails_its_claim(monkeypatch, claim, seed):
    assert _check(claim, seed).status is CheckStatus.PASS
    MUTATIONS[claim](monkeypatch)
    assert _check(claim, seed).status is CheckStatus.FAIL


@pytest.mark.parametrize("seed", SEEDS)
def test_a_stronger_spread_lowers_every_kappa(monkeypatch, seed):
    # the member claim reads the same spread: its least kappa falls by 1% of
    # 1/(1 + 2 alpha) = 1/3 at the default alpha = 1
    before = _check("cor2/bounds_hold_for_members", seed).margin
    _spread_too_strong(monkeypatch)
    after = _check("cor2/bounds_hold_for_members", seed).margin
    assert after == pytest.approx(before - 0.01 / 3.0, abs=1e-15)
