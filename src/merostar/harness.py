"""Verification suites, random member generators, and report IO.

Each suite re-derives one result numerically at desk scale and returns a
VerificationReport whose checks carry margins and witness points. Suites are
deterministic given their parameters and seed; "all" runs every suite with
its defaults under a shared seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import convolution, extremal, partial_sums, tme
from .classes import (
    ClassSpec,
    Family,
    MembershipVerdict,
    Status,
    check_me,
    check_mf,
    check_remark2,
    check_starlike,
    class_margins,
    coeff_bound,
    coeff_sufficient_me,
    coeff_weight,
    me_margins,
)
from .convolution import KernelSpec, kernel, neighborhood_sample, thm31_margins
from .reporting import CheckResult, CheckStatus, VerificationReport, fold_members
from .series import (
    DiscGrid,
    LaurentFunction,
    deserialize_coeffs,
    eval_g,
    hadamard,
    partial_sum,
    random_support,
    refinement_grid,
    ring_values,
    serialize_coeffs,
)
from .tolerances import EXACT_TOL, MARGIN_TOL

__all__ = [
    "SUITE_IDS",
    "run_suite",
    "load_series",
    "save_report",
    "sample_certified_member",
    "sample_hypothesis_member",
    "sample_tme_member",
    "sample_wild_function",
    "classify_me",
    "classify_tme",
]

# ---------------------------------------------------------------- samplers

def _sample_weighted(
    alpha: float, rng: np.random.Generator, lowest: int, max_index: int
) -> LaurentFunction:
    indices, weights = random_support(rng, lowest, max_index, 13)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(indices)))
    u = float(rng.uniform(0.0, 1.0))
    coeffs = [0j] * (int(indices.max()) + 1)
    for idx, t, ph in zip(indices, weights, phases):
        coeffs[int(idx)] = (u * float(t) / coeff_weight(alpha, int(idx))) * complex(ph)
    return LaurentFunction(tuple(coeffs))


def sample_certified_member(
    alpha: float, rng: np.random.Generator, max_index: int = 40
) -> LaurentFunction:
    """Random function with sum (1 + alpha(n+1))|a_n| = u <= 1.

    Mass u ~ U(0,1) is spread over a random index set by a Dirichlet draw
    with uniform phases, covering both the interior and the near-boundary
    of the certificate.
    """
    return _sample_weighted(alpha, rng, 0, max_index)


def sample_hypothesis_member(
    alpha: float, rng: np.random.Generator, max_index: int = 40
) -> LaurentFunction:
    """Random function with sum_{k>=1} d_k |a_k| = u <= 1 (index 0 empty)."""
    return _sample_weighted(alpha, rng, 1, max_index)


def sample_tme_member(
    alpha: float, rng: np.random.Generator, max_index: int = 30, boundary: bool = False
) -> tme.TmeFunction:
    """Random convex combination of the extreme points.

    boundary=True omits the pole weight so the weighted sum is exactly 1.
    """
    indices, lam = random_support(rng, 1, max_index, 9, 0 if boundary else 1)
    tail = lam if boundary else lam[1:]
    mags = [0.0] * int(indices.max())
    for idx, l in zip(indices, tail):
        mags[int(idx) - 1] = float(l) / coeff_weight(alpha, int(idx))
    return tme.TmeFunction(tuple(mags))


def sample_wild_function(rng: np.random.Generator, max_index: int = 25) -> LaurentFunction:
    """Unconstrained random series with decaying complex coefficients;
    membership in anything is accidental."""
    degree = int(rng.integers(1, max_index + 1))
    scale = float(rng.uniform(0.1, 2.5))
    raw = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    coeffs = tuple(scale * raw[n] / (n + 2) for n in range(degree + 1))
    return LaurentFunction(coeffs)


# ------------------------------------------------------------ CLI verdicts

def classify_me(f: LaurentFunction, alpha: float, grid: DiscGrid):
    """Verdict for the CLI: certificate first, then the sampled check.

    A passing certificate upgrades the verdict to CertifiedMember unless the
    grid found a strict violation (which would contradict it and wins).
    """
    return _me_verdict(f, alpha, check_me(f, alpha, grid))


def _me_verdict(f: LaurentFunction, alpha: float, verdict: MembershipVerdict):
    """classify_me given the sampled verdict of check_me."""
    certified, _ = coeff_sufficient_me(f, alpha)
    if certified and verdict.status is not Status.NON_MEMBER:
        return MembershipVerdict(
            Status.CERTIFIED_MEMBER, verdict.min_margin, verdict.witness, verdict.samples_checked
        )
    return verdict


def classify_tme(f: tme.TmeFunction, alpha: float):
    """Exact verdict for the negative-coefficient class.

    Membership is decided by the characterization; a refuted function gets
    its witness from the real-axis scan when the violation is large enough
    to sample, otherwise the verdict stays Indeterminate.
    """
    return _tme_verdict(f, alpha, tme.check_tme_exact(f, alpha))


def _tme_verdict(f: tme.TmeFunction, alpha: float, exact: tuple[bool, float]):
    """classify_tme given the result of check_tme_exact."""
    member, margin = exact
    if member:
        return MembershipVerdict(Status.CERTIFIED_MEMBER, margin, None, len(f.magnitudes))
    axis = tme.refute_on_axis(f, alpha)
    if axis.status is Status.NON_MEMBER:
        return axis
    return MembershipVerdict(Status.INDETERMINATE, margin, axis.witness, axis.samples_checked)


# ----------------------------------------------------------------- suites

def _ok(name: str, ok: bool, margin=None, witness=None, detail: str = "") -> CheckResult:
    return CheckResult(
        name, CheckStatus.PASS if ok else CheckStatus.FAIL, margin, witness, detail
    )


def _boundary_deviation(results) -> float:
    """Largest |margin| over the (certified, margin) results of functions
    whose weighted sum is exactly 1; inf as soon as one is not certified."""
    worst = 0.0
    for certified, margin in results:
        if not certified:
            return math.inf
        worst = max(worst, abs(margin))
    return worst


def _suite_thm21(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha = p["alpha"]
    if not alpha >= 1:
        raise ValueError(f"thm2.1 suite needs alpha >= 1, got {alpha}")
    checks = []

    expz = extremal.mf_not_me_witness(30)
    in_mf0 = check_mf(expz, 0.0, grid)
    out_me1 = check_me(expz, 1.0, grid)
    checks.append(
        _ok(
            "exp_separates_mf_from_me",
            in_mf0.is_member and out_me1.status is Status.NON_MEMBER,
            out_me1.min_margin,
            out_me1.witness,
            f"mf margin {in_mf0.min_margin:.3e}, me margin {out_me1.min_margin:.3e}",
        )
    )

    onemz2 = extremal.starlike_not_mf_witness()
    in_star0 = check_starlike(onemz2, 0.0, grid)
    out_mf0 = check_mf(onemz2, 0.0, grid)
    checks.append(
        _ok(
            "square_separates_starlike_from_mf",
            in_star0.is_member and out_mf0.status is Status.NON_MEMBER,
            out_mf0.min_margin,
            out_mf0.witness,
            f"starlike margin {in_star0.min_margin:.3e}, mf margin {out_mf0.min_margin:.3e}",
        )
    )

    f21 = extremal.theorem21_extremal(alpha)
    me_v = check_me(f21, alpha, grid)
    checks.append(_ok("extremal_in_me", me_v.is_member, me_v.min_margin, me_v.witness))

    neg_axis = -np.asarray(grid.radii, dtype=complex)
    axis_margins = me_margins(f21, alpha, neg_axis)
    decreasing = bool(np.all(np.diff(axis_margins) < 0))
    vanishing = 0 <= axis_margins[-1] < 1e-3
    checks.append(
        _ok(
            "extremal_margin_vanishes_on_negative_axis",
            decreasing and vanishing,
            float(axis_margins[-1]),
            complex(neg_axis[-1]),
        )
    )

    order = 1.0 - 1.0 / alpha
    mf_v = check_mf(f21, order, grid)
    st_v = check_starlike(f21, order, grid)
    chain_ok = mf_v.min_margin >= -MARGIN_TOL and st_v.min_margin >= -MARGIN_TOL
    checks.append(
        _ok(
            "inclusion_chain_at_order",
            me_v.is_member and chain_ok,
            min(mf_v.min_margin, st_v.min_margin),
            mf_v.witness,
            f"order {order:.6f}",
        )
    )

    # order functional 1 - Re(zg'/g), the STARLIKE(0) margin: its infimum
    # 1 - 1/alpha is approached along the positive real axis (the functional
    # is 1 - 2cz/(1-c^2 z^2), odd numerator, so the mirrored axis tends to
    # 1 + 1/alpha instead)
    radii = np.array((0.9, 0.99, 0.999))
    star0 = ClassSpec(Family.STARLIKE, 0.0)
    vals = class_margins(star0, f21, radii)[0]
    mirrored = class_margins(star0, f21, -radii)[0]
    gaps = [abs(v - order) for v in vals]
    limit_ok = (
        gaps[0] > gaps[1] > gaps[2]
        and gaps[2] < 0.02
        and abs(mirrored[2] - (1.0 + 1.0 / alpha)) < 0.02
    )
    checks.append(
        _ok(
            "order_functional_boundary_limit",
            limit_ok,
            gaps[2],
            complex(radii[2]),
            f"values {['%.6f' % v for v in vals]} -> {order:.6f}; "
            f"mirrored {mirrored[2]:.6f} -> {1 + 1 / alpha:.6f}",
        )
    )
    return checks


def _suite_thm22(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 22)
    checks = []

    members = [sample_certified_member(alpha, rng) for _ in range(count)]
    check = fold_members(
        "certificate_implies_grid_margins",
        [check_me(f, alpha, grid) for f in members],
        f"{count} random certified members",
    )
    if not all(coeff_sufficient_me(f, alpha)[0] for f in members):
        check = replace(check, status=CheckStatus.FAIL, margin=-math.inf)
    checks.append(check)

    worst_dev = _boundary_deviation(
        coeff_sufficient_me(extremal.remark1_witness(n), 1.0) for n in range(1, 21)
    )
    checks.append(
        _ok(
            "boundary_members_sum_exactly_one",
            worst_dev < 1e-12,
            worst_dev,
            None,
            "single-term functions with weighted sum 1 at alpha=1, n=1..20",
        )
    )

    f21 = extremal.theorem21_extremal(max(alpha, 1.0))
    certified, margin = coeff_sufficient_me(f21, max(alpha, 1.0))
    v = check_me(f21, max(alpha, 1.0), grid)
    checks.append(
        _ok(
            "certificate_is_not_necessary",
            (not certified) and v.is_member,
            margin,
            None,
            "boundary extremal is a member yet fails the coefficient sum",
        )
    )
    return checks


def _suite_thm23(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 23)
    checks = []

    worst_attain = 0.0
    worst_root = 0.0
    draws = [(alpha, n)] + [
        (float(rng.uniform(0.0, 4.0)), int(rng.integers(1, 17))) for _ in range(50)
    ]
    for a, k in draws:
        f = extremal.theorem23_extremal(a, k)
        attained = abs(f.coeffs[k - 1].real - coeff_bound(a, k - 1))
        worst_attain = max(worst_attain, attained)
        m = a * k
        d = coeff_bound(a, k - 1) / 2.0
        worst_root = max(worst_root, abs(1.0 - d * d - 2.0 * m * d))
    checks.append(
        _ok(
            "bound_attained_at_index",
            worst_attain < 1e-12,
            worst_attain,
            None,
            "50 random (alpha, n) plus the given pair",
        )
    )
    checks.append(_ok("root_identity", worst_root < 1e-12, worst_root))

    v = check_me(extremal.theorem23_extremal(alpha, n), alpha, grid)
    checks.append(_ok("extremal_in_me", v.is_member, v.min_margin, v.witness))

    worst_bound = math.inf
    for _ in range(count):
        f = sample_certified_member(alpha, rng)
        for k, c in enumerate(f.coeffs):
            worst_bound = min(worst_bound, coeff_bound(alpha, k) - abs(c))
    checks.append(
        _ok(
            "certified_members_respect_bounds",
            worst_bound >= -MARGIN_TOL,
            worst_bound,
            None,
            f"{count} random certified members, all indices",
        )
    )
    return checks


def _suite_rem1(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n = p["alpha"], p["n"]
    checks = []

    worst = _boundary_deviation(
        coeff_sufficient_me(extremal.remark1_witness(k), 1.0) for k in range(1, 21)
    )
    checks.append(_ok("certified_boundary_members_alpha1", worst < 1e-12, worst))

    w = extremal.remark1_witness(n)
    me_v = check_me(w, 1.0, grid)
    checks.append(_ok("witness_in_me_alpha1", me_v.min_margin >= -MARGIN_TOL, me_v.min_margin))

    if not 0 < alpha < 1:
        raise ValueError(f"rem1 suite needs 0 < alpha < 1, got {alpha}")
    # the rejection threshold is the integer part of (2-3a)/a; nudge before
    # flooring because e.g. (2 - 3*0.1)/0.1 lands just under 17
    threshold = math.floor((2.0 - 3.0 * alpha) / alpha + 1e-9)
    if n <= threshold:
        checks.append(
            CheckResult(
                "witness_not_starlike",
                CheckStatus.INAPPLICABLE,
                None,
                None,
                f"n={n} does not exceed the threshold {threshold}",
            )
        )
    else:
        st = check_starlike(w, alpha, grid)
        if st.status is not Status.NON_MEMBER:
            # violations barely below the boundary need radii closer to 1
            st = check_starlike(w, alpha, refinement_grid(512))
        checks.append(
            _ok(
                "witness_not_starlike",
                st.status is Status.NON_MEMBER,
                st.min_margin,
                st.witness,
                f"n={n} > threshold {threshold}",
            )
        )
    return checks


def _suite_rem2(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    if not alpha >= 1:
        raise ValueError(f"rem2 suite needs alpha >= 1, got {alpha}")
    rng = np.random.default_rng(seed + 32)
    checks = []

    v = check_remark2(extremal.theorem21_extremal(alpha), grid)
    checks.append(fold_members("holds_for_extremal", [v], ""))

    checks.append(
        fold_members(
            "holds_for_certified_members",
            (check_remark2(sample_certified_member(alpha, rng), grid) for _ in range(count)),
            f"{count} random certified members",
        )
    )

    bad = LaurentFunction((0j, 3 + 0j))
    r = check_remark2(bad, grid)
    checks.append(
        _ok(
            "check_has_power",
            r.status is Status.NON_MEMBER,
            r.min_margin,
            r.witness,
            "1/z + 3z must violate",
        )
    )
    return checks


def _fourier_tail_coeffs(gfun, count: int, radius: float = 0.5) -> np.ndarray:
    """Taylor coefficients of an analytic g by FFT on |z| = radius."""
    m = max(256, 4 * count)
    z = radius * np.exp(2j * np.pi * np.arange(m) / m)
    c = np.fft.fft(gfun(z)) / m
    return c[:count] / radius ** np.arange(count)


def _suite_thm31(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    gamma_samples = p["gamma_samples"]
    rng = np.random.default_rng(seed + 31)
    checks = []

    agree = 0
    for i in range(count):
        if i % 3 == 0:
            f = sample_certified_member(alpha, rng)
        elif i % 3 == 1:
            base = sample_certified_member(alpha, rng)
            f = LaurentFunction(tuple(3.0 * c for c in base.coeffs))
        else:
            f = sample_wild_function(rng)
        a = convolution.check_thm31(f, alpha, grid, gamma_samples)
        b = check_me(f, alpha, grid)
        agree += a.status is b.status
    checks.append(
        _ok(
            "status_agreement_with_direct_check",
            agree == count,
            float(agree) / count,
            None,
            f"{agree}/{count} statuses identical",
        )
    )

    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.0, 3.0))
        gam = float(rng.uniform(-np.pi, np.pi))
        spec = KernelSpec(a, gam)
        # extraction at radius 1/2 amplifies roundoff by 2^k, so stop at
        # index 15 where the inversion is still conditioned well below 1e-10
        h = kernel(spec, 14)
        factor = a * np.exp(1j * gam) - 1.0
        oracle = _fourier_tail_coeffs(lambda z: (1.0 + z * factor) / (1.0 - z) ** 2, 16)
        got = np.concatenate(([1.0 + 0j], np.asarray(h.coeffs)))
        worst = max(worst, float(np.max(np.abs(got - oracle[: len(got)]))))
    checks.append(_ok("kernel_coeffs_match_fourier_oracle", worst < 1e-10, worst))

    f = sample_certified_member(alpha, rng)
    worst_rel = 0.0
    for _ in range(64):
        z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if abs(z) >= 0.95 or z == 0:
            z = 0.5 + 0.1j
        gam = float(rng.uniform(-np.pi, np.pi))
        h = kernel(KernelSpec(alpha, gam), f.truncation_degree)
        lhs = eval_g(hadamard(f, h), z)
        rhs = convolution.convolve_with_kernel(f, alpha, gam, z)
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_ok("kernel_identity", worst_rel < 1e-10, worst_rel))

    exact, sampled = thm31_margins(f, alpha, grid, gamma_samples)
    zgp = np.abs(ring_values(f, grid)[1])
    bound = 2.0 * np.pi**2 * alpha * zgp / gamma_samples**2
    slack = float(np.min(bound - (sampled - exact)))
    nonneg = float(np.min(sampled - exact))
    checks.append(
        _ok(
            "gamma_discretization_within_bound",
            slack >= 0 and nonneg >= -1e-15,
            slack,
            None,
            f"{gamma_samples} phases",
        )
    )
    return checks


def _suite_thm32(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, eps, count, seed = p["alpha"], p["eps"], p["count"], p["seed"]
    pole = LaurentFunction(())
    delta_star = 1.0 / coeff_weight(alpha, 1)
    delta = p.get("delta", delta_star)
    if not 0.0 < delta <= delta_star:
        raise ValueError(f"delta must lie in (0, {delta_star}], got {delta}")
    scale = delta / delta_star
    inner = convolution.check_thm32(pole, alpha, eps, count, grid, seed, scale=scale)
    checks = list(inner.checks)

    verdicts = [
        check_me(sample, alpha, grid)
        for sample in neighborhood_sample(pole, 10.0 * delta, min(count, 60), seed + 1)
    ]
    refuted = [v for v in verdicts if v.status is Status.NON_MEMBER]
    checks.append(
        _ok(
            "inflated_radius_refuted",
            bool(refuted),
            min(v.min_margin for v in verdicts),
            refuted[0].witness if refuted else None,
            f"{len(refuted)} refutations at delta*10",
        )
    )
    return checks


def _suite_thm41(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 41)
    checks = []

    worst = _boundary_deviation(
        tme.check_tme_exact(tme.sharp_function(alpha, k), alpha) for k in range(1, 21)
    )
    checks.append(_ok("sharp_functions_margin_zero", worst < 1e-12, worst))

    sharp = tme.sharp_function(alpha, n)
    scaled = tme.TmeFunction(tuple(1.01 * m for m in sharp.magnitudes))
    member, margin = tme.check_tme_exact(scaled, alpha)
    axis = tme.refute_on_axis(scaled, alpha)
    checks.append(
        _ok(
            "scaled_sharp_function_refuted",
            (not member) and axis.status is Status.NON_MEMBER,
            axis.min_margin,
            axis.witness,
            f"exact margin {margin:.3e}",
        )
    )

    ok = True
    verdicts = []
    for i in range(count):
        f = sample_tme_member(alpha, rng, boundary=(i % 4 == 0))
        member, _ = tme.check_tme_exact(f, alpha)
        verdicts.append(check_me(f.to_laurent(), alpha, grid))
        bad = tme.TmeFunction(tuple(1.01 * m for m in sample_tme_member(alpha, rng, boundary=True).magnitudes))
        ok = ok and member and classify_tme(bad, alpha).status is Status.NON_MEMBER
    worst_member = min((v.min_margin for v in verdicts), default=math.inf)
    ok = ok and worst_member >= -MARGIN_TOL
    checks.append(
        _ok(
            "characterization_both_directions",
            ok,
            worst_member,
            None,
            f"{count} members and {count} scaled non-members",
        )
    )
    return checks


def _suite_cor1(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 81)
    checks = []

    worst = 0.0
    for _ in range(count):
        f = sample_tme_member(alpha, rng)
        back = tme.recompose(tme.decompose(f, alpha), alpha)
        a = np.asarray(f.magnitudes)
        b = np.asarray(back.magnitudes)
        m = max(len(a), len(b))
        a = np.pad(a, (0, m - len(a)))
        b = np.pad(b, (0, m - len(b)))
        worst = max(worst, float(np.max(np.abs(a - b))) if m else 0.0)
    checks.append(_ok("decompose_recompose_roundtrip", worst < 1e-12, worst))

    worst_margin = math.inf
    for _ in range(count):
        k = int(rng.integers(1, 12))
        lam = rng.dirichlet(np.ones(k + 1))
        f = tme.recompose(tuple(float(x) for x in lam), alpha)
        _, margin = tme.check_tme_exact(f, alpha)
        worst_margin = min(worst_margin, margin)
    checks.append(
        _ok("convex_combinations_are_members", worst_margin >= -EXACT_TOL, worst_margin)
    )

    ok = True
    worst_dev = 0.0
    for k in range(1, 11):
        lam = tme.decompose(tme.sharp_function(alpha, k), alpha)
        dev = max(abs(lam[k] - 1.0), max(abs(l) for i, l in enumerate(lam) if i != k))
        worst_dev = max(worst_dev, dev)
        ok = ok and dev < 1e-12
    checks.append(_ok("extreme_points_decompose_to_unit_weight", ok, worst_dev))
    return checks


def _suite_cor2(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 82)
    checks = []

    checks.append(
        fold_members(
            "bounds_hold_for_members",
            (tme.check_distortion(sample_tme_member(alpha, rng), alpha, grid) for _ in range(count)),
            f"{count} random members on the default grid",
        )
    )

    eq = tme.sharp_function(alpha, 1).to_laurent()
    worst_low = 0.0
    worst_high = 0.0
    for r in (0.3, 0.6, 0.9):
        lower, upper = tme.distortion_bounds(alpha, r)
        at_r = abs(eval_g(eq, complex(r))) / r
        at_ir = abs(eval_g(eq, complex(0, r))) / r
        worst_low = max(worst_low, abs(at_r - lower))
        worst_high = max(worst_high, abs(at_ir - upper))
    checks.append(_ok("equality_function_attains_lower_at_r", worst_low < 1e-9, worst_low))
    checks.append(_ok("equality_function_attains_upper_at_ir", worst_high < 1e-9, worst_high))
    return checks


def _suite_thm42(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 42)
    checks = []

    reports = []
    for _ in range(count):
        f = sample_hypothesis_member(alpha, rng)
        reports.append(partial_sums.check_ratio_bounds(f, alpha, int(rng.integers(1, 9)), grid))
    applicable = all(r.applicable for r in reports)
    worst = min((min(r.margins) for r in reports), default=math.inf)
    checks.append(
        _ok(
            "ratio_bounds_hold_for_members",
            applicable and worst >= -MARGIN_TOL,
            worst,
            None,
            f"{count} random members, random n in 1..8",
        )
    )

    f16 = partial_sums.eq16_function(alpha, n)
    d_n = coeff_weight(alpha, n)
    z = 0.9999
    observed = float(
        np.real(eval_g(f16, complex(z)) / eval_g(partial_sum(f16, n), complex(z)))
    )
    gap = abs(observed - (1.0 - 1.0 / d_n))
    checks.append(
        _ok(
            "sharp_function_value_near_bound",
            gap < 1e-3,
            gap,
            complex(z),
            f"Re(f/S_n)({z}) = {observed:.6f}, bound {1.0 - 1.0 / d_n:.6f}",
        )
    )

    gaps = []
    gaps2 = []
    for rmax in (0.9, 0.99, 0.999, 0.9999):
        sub = DiscGrid.with_rmax(rmax, 256)
        rep = partial_sums.check_ratio_bounds(f16, alpha, n, sub)
        gaps.append(rep.observed_min_f_over_s - rep.bound_f_over_s)
        gaps2.append(rep.observed_min_s_over_f - rep.bound_s_over_f)
    monotone = all(a > b >= 0 for a, b in zip(gaps, gaps[1:])) and gaps2[-1] < 1e-2
    checks.append(
        _ok(
            "sharpness_gap_shrinks_with_radius",
            monotone,
            gaps[-1],
            None,
            f"first-bound gaps {['%.2e' % g for g in gaps]}, "
            f"second-bound final gap {gaps2[-1]:.2e}",
        )
    )

    a0_margins = []
    for _ in range(20):
        f = sample_hypothesis_member(alpha, rng)
        witha0 = LaurentFunction((0.3 + 0j,) + f.coeffs[1:])
        rep = partial_sums.check_ratio_bounds(witha0, alpha, int(rng.integers(1, 9)), grid)
        a0_margins.append(min(rep.margins))
    worst_a0 = min(a0_margins)
    violated = sum(m < -MARGIN_TOL for m in a0_margins)
    checks.append(
        CheckResult(
            "nonzero_a0_observation",
            CheckStatus.INDETERMINATE,
            worst_a0,
            None,
            f"bounds violated for {violated} of 20 perturbed members; "
            "recorded as observation only, the hypothesis says nothing about a_0",
        )
    )
    return checks


# suite id -> (suite, its default parameters); "all" runs them in this order
_SUITES = {
    "thm2.1": (_suite_thm21, {"alpha": 2.0}),
    "thm2.2": (_suite_thm22, {"alpha": 1.0, "count": 200, "seed": 0}),
    "thm2.3": (_suite_thm23, {"alpha": 1.5, "n": 2, "count": 200, "seed": 0}),
    "rem1": (_suite_rem1, {"alpha": 0.1, "n": 18}),
    "rem2": (_suite_rem2, {"alpha": 1.0, "count": 50, "seed": 0}),
    "thm3.1": (_suite_thm31, {"alpha": 1.0, "count": 200, "seed": 0, "gamma_samples": 256}),
    "thm3.2": (_suite_thm32, {"alpha": 1.0, "eps": 0.5, "count": 200, "seed": 0}),
    "thm4.1": (_suite_thm41, {"alpha": 2.0, "n": 3, "count": 100, "seed": 0}),
    "cor1": (_suite_cor1, {"alpha": 1.0, "count": 200, "seed": 0}),
    "cor2": (_suite_cor2, {"alpha": 1.0, "count": 200, "seed": 0}),
    "thm4.2": (_suite_thm42, {"alpha": 1.0, "n": 2, "count": 200, "seed": 0}),
}
SUITE_IDS = (*_SUITES, "all")


def run_suite(name: str, params: dict | None = None) -> VerificationReport:
    """Run one verification suite (or "all") and return its report.

    params may override the suite defaults: alpha, n, count, seed, eps,
    delta, gamma_samples where the suite uses them. Unknown suite names are
    rejected.
    """
    t0 = time.perf_counter()
    params = dict(params or {})
    if name not in SUITE_IDS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_IDS)}")
    if name == "all":
        seed = params.get("seed")
        checks: list[CheckResult] = []
        inputs: dict = {"seed": seed if seed is not None else 0}
        for sub, (_, defaults) in _SUITES.items():
            report = run_suite(sub, {"seed": seed} if "seed" in defaults else {})
            inputs[sub] = report.inputs
            checks.extend(replace(c, name=f"{sub}/{c.name}") for c in report.checks)
    else:
        suite, defaults = _SUITES[name]
        inputs = dict(defaults)
        for key, value in params.items():
            if value is None:
                continue
            inputs[key] = value
        for key in ("n", "count", "seed", "gamma_samples"):
            if key in inputs:
                inputs[key] = int(inputs[key])
        checks = suite(inputs, DiscGrid.default())
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(name, inputs, tuple(checks), runtime_ms)


# -------------------------------------------------------------------- IO

def load_series(path: str | Path) -> LaurentFunction:
    """Read the series JSON ({"coeffs": [[re, im], ...]}); unknown keys are
    ignored, malformed entries are rejected with their index."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return deserialize_coeffs(data)


def load_tme(path: str | Path) -> tme.TmeFunction:
    """Read either {"magnitudes": [a1, ...]} or a convertible series file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "magnitudes" in data:
        raw = data["magnitudes"]
        if not isinstance(raw, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise ValueError('"magnitudes" must be a list of numbers')
        return tme.TmeFunction(tuple(raw))
    return tme.TmeFunction.from_laurent(deserialize_coeffs(data))


def save_series(f: LaurentFunction, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_coeffs(f), fh)
        fh.write("\n")


def save_report(report: VerificationReport, path: str | Path) -> None:
    """Write the report as stable JSON (sorted keys, two-space indent)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
