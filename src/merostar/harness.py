"""Verification suites, random member generators, and report IO.

Each suite re-derives one result numerically at desk scale and returns its
claims, each built by _within, _verdict, fold_members or _ok, which run_suite
wraps in a VerificationReport. Suites are deterministic given their parameters
and seed; "all" runs each suite with its defaults under the given seed.
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
)
from .convolution import KernelSpec, kernel, neighborhood_sample, phase_margins, thm31_verdicts
from .reporting import CheckResult, CheckStatus, VerificationReport, fold_members
from .series import (
    DiscGrid,
    LaurentFunction,
    deserialize_coeffs,
    eval_g,
    hadamard,
    partial_sum,
    random_support,
    ring_values,
    scalar,
)
from .tolerances import EXACT_TOL, MARGIN_TOL

__all__ = [
    "SUITE_IDS",
    "run_suite",
    "load_series",
    "load_tme",
    "save_report",
    "sample_certified_member",
    "sample_hypothesis_member",
    "sample_tme_member",
    "sample_wild_function",
    "classify_me",
    "classify_tme",
]

# ---------------------------------------------------------------- samplers

def _sample_weighted(alpha: float, rng: np.random.Generator, lowest: int) -> LaurentFunction:
    alpha = ClassSpec(Family.ME, alpha).alpha  # before coeff_weight, which is 0 at alpha = -0.5
    indices, weights = random_support(rng, lowest, 40, 13)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(indices)))
    u = float(rng.uniform(0.0, 1.0))
    coeffs = np.zeros(int(indices.max()) + 1, dtype=complex)
    coeffs[indices] = (u * weights / coeff_weight(alpha, indices)) * phases
    return LaurentFunction(coeffs.tolist())


def sample_certified_member(alpha: float, rng: np.random.Generator) -> LaurentFunction:
    """Random function with sum (1 + alpha(n+1))|a_n| = u <= 1.

    Mass u ~ U(0,1) is spread over a random index set by a Dirichlet draw
    with uniform phases, covering both the interior and the near-boundary
    of the certificate.
    """
    return _sample_weighted(alpha, rng, 0)


def sample_hypothesis_member(alpha: float, rng: np.random.Generator) -> LaurentFunction:
    """Random function with sum_{k>=1} d_k |a_k| = u <= 1 (index 0 empty)."""
    return _sample_weighted(alpha, rng, 1)


def sample_tme_member(
    alpha: float, rng: np.random.Generator, boundary: bool = False
) -> tme.TmeFunction:
    """Random convex combination of the extreme points.

    boundary=True omits the pole weight so the weighted sum is exactly 1.
    """
    alpha = ClassSpec(Family.ME, alpha).alpha
    indices, lam = random_support(rng, 1, 30, 9, 0 if boundary else 1)
    tail = lam if boundary else lam[1:]
    mags = np.zeros(int(indices.max()))
    mags[indices - 1] = tail / coeff_weight(alpha, indices)
    return tme.TmeFunction(mags.tolist())


def sample_wild_function(rng: np.random.Generator, max_index: int = 25) -> LaurentFunction:
    """Unconstrained random series with decaying complex coefficients;
    membership in anything is accidental."""
    degree = int(rng.integers(1, max_index + 1))
    scale = float(rng.uniform(0.1, 2.5))
    raw = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    coeffs = tuple(scale * raw[n] / (n + 2) for n in range(degree + 1))
    return LaurentFunction(coeffs)


# ------------------------------------------------------------ CLI verdicts

def classify_me(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """CertifiedMember, unsampled, when the coefficient certificate passes:
    min_margin is its slack, a lower bound for the ME margin on the closed
    disc (there Re g >= 1 - sum |a_n| and |z g'| <= sum (n+1)|a_n|), with no
    witness and the coefficients summed as samples_checked. Otherwise
    check_me's verdict."""
    certified, slack = coeff_sufficient_me(f, alpha)
    if certified:
        return MembershipVerdict(Status.CERTIFIED_MEMBER, slack, None, len(f.coeffs), "coefficients")
    return check_me(f, alpha, grid)


def classify_tme(f: tme.TmeFunction, alpha: float) -> MembershipVerdict:
    """The exact test's CertifiedMember or NonMember, in classify_me's shape:
    min_margin is the slack, the infimum of the ME margin over the disc."""
    member, slack = tme.check_tme_exact(f, alpha)
    status = Status.CERTIFIED_MEMBER if member else Status.NON_MEMBER
    return MembershipVerdict(status, slack, None, len(f.magnitudes), "coefficients")


# ----------------------------------------------------------------- suites

def _ok(name: str, ok: bool, margin=None, witness=None, detail: str = "") -> CheckResult:
    return CheckResult(
        name, CheckStatus.PASS if ok else CheckStatus.FAIL, margin, witness, detail
    )


def _within(name: str, deviation: float, tol: float = EXACT_TOL, detail: str = "") -> CheckResult:
    """A closed form or identity: passes when the deviation is below tol
    (equality and NaN fail); the deviation is the margin."""
    ok = deviation < tol
    return _ok(name, ok, deviation, None, detail)


def _verdict(name: str, v: MembershipVerdict, member: bool, detail: str = "") -> CheckResult:
    """One function's verdict: passes when v is a member (member=True) or a
    NonMember (member=False), with v's margin and witness."""
    ok = v.is_member if member else v.status is Status.NON_MEMBER
    return _ok(name, ok, v.min_margin, v.witness, detail)


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
    # from 2^54 on, the order 1 - 1/alpha rounds to 1, which MF and STARLIKE refuse
    alpha = scalar(p["alpha"], "alpha", low=1, below=2.0**54)

    expz = extremal.mf_not_me_witness(30)
    in_mf0 = check_mf(expz, 0.0, grid)
    out_me1 = check_me(expz, 1.0, grid)

    onemz2 = extremal.starlike_not_mf_witness()
    in_star0 = check_starlike(onemz2, 0.0, grid)
    out_mf0 = check_mf(onemz2, 0.0, grid)

    f21 = extremal.theorem21_extremal(alpha)
    me_v = check_me(f21, alpha, grid)

    order = 1.0 - 1.0 / alpha
    mf_v = check_mf(f21, order, grid)
    st_v = check_starlike(f21, order, grid)
    chain_ok = mf_v.min_margin >= -MARGIN_TOL and st_v.min_margin >= -MARGIN_TOL

    # the margins of the truncated series extend continuously to the closed
    # disc, so each sharp limit is a value on the circle: the ME margin is 0 at
    # z = -1, and the order functional 1 - Re(zg'/g), the STARLIKE(0) margin, is
    # 1 - 1/alpha at z = 1 and 1 + 1/alpha at z = -1
    me_gap = float(abs(class_margins(ClassSpec(Family.ME, alpha), f21, -1 + 0j)))
    orders = class_margins(ClassSpec(Family.STARLIKE, 0.0), f21, np.array((1 + 0j, -1 + 0j)))
    # np.max, unlike max, keeps a NaN gap so that it fails the check
    order_gap = float(np.max(np.abs(orders - (order, 1.0 + 1.0 / alpha))))
    return [
        _ok(
            "exp_separates_mf_from_me",
            in_mf0.is_member and out_me1.status is Status.NON_MEMBER,
            out_me1.min_margin,
            out_me1.witness,
            f"mf margin {in_mf0.min_margin:.3e}, me margin {out_me1.min_margin:.3e}",
        ),
        _ok(
            "square_separates_starlike_from_mf",
            in_star0.is_member and out_mf0.status is Status.NON_MEMBER,
            out_mf0.min_margin,
            out_mf0.witness,
            f"starlike margin {in_star0.min_margin:.3e}, mf margin {out_mf0.min_margin:.3e}",
        ),
        _verdict("extremal_in_me", me_v, True),
        _within("extremal_margin_vanishes_on_negative_axis", me_gap, detail="|ME margin| at z = -1"),
        _ok(
            "inclusion_chain_at_order",
            me_v.is_member and chain_ok,
            min(mf_v.min_margin, st_v.min_margin),
            mf_v.witness,
            f"order {order:.6f}",
        ),
        _within(
            "order_functional_boundary_limit",
            order_gap,
            detail=f"1 - Re(zg'/g) at z = 1 and -1 against {order:.6f} and {1 + 1 / alpha:.6f}",
        ),
    ]


def _suite_thm22(p: dict, grid: DiscGrid) -> list[CheckResult]:
    # the thm2.1 extremal's coefficient sum exceeds 1 by about 2/alpha, which is
    # ulp(1) at 2^53 and rounds away just above it: alpha is refused from there on
    alpha, count, seed = scalar(p["alpha"], "alpha", low=0, below=2.0**53), p["count"], p["seed"]
    rng = np.random.default_rng(seed + 22)

    members = [sample_certified_member(alpha, rng) for _ in range(count)]
    members_check = fold_members(
        "certificate_implies_grid_margins",
        [check_me(f, alpha, grid) for f in members],
        f"{count} random certified members",
    )
    if not all(coeff_sufficient_me(f, alpha)[0] for f in members):
        members_check = replace(members_check, status=CheckStatus.FAIL, margin=-math.inf)

    worst_dev = _boundary_deviation(
        coeff_sufficient_me(extremal.remark1_witness(n), 1.0) for n in range(1, 21)
    )

    # the deficit itself, not the certified flag, which EXACT_TOL relaxes
    f21 = extremal.theorem21_extremal(max(alpha, 1.0))
    _, margin = coeff_sufficient_me(f21, max(alpha, 1.0))
    v = check_me(f21, max(alpha, 1.0), grid)
    return [
        members_check,
        _within(
            "boundary_members_sum_exactly_one",
            worst_dev,
            detail="single-term functions with weighted sum 1 at alpha=1, n=1..20",
        ),
        _ok(
            "certificate_is_not_necessary",
            margin < 0 and v.is_member,
            margin,
            None,
            "boundary extremal is a member yet fails the coefficient sum",
        ),
    ]


def _suite_thm23(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 23)

    # theorem23_extremal builds a_{n-1} = 2d from this d, so the bound is
    # attained by construction; what is left to check is the root equation
    draws = [(alpha, n)] + [
        (float(rng.uniform(0.0, 4.0)), int(rng.integers(1, 17))) for _ in range(50)
    ]
    roots = []
    for a, k in draws:
        m = a * k
        d = coeff_bound(a, k - 1) / 2.0
        roots.append(abs(1.0 - d * d - 2.0 * m * d))
    # np.max, unlike max, keeps a NaN root (alpha * n beyond float range) so that it fails
    worst_root = float(np.max(roots))

    # the truncation drops 2 d^m z^{mn} for m >= m0, which lowers the ME margin on
    # the disc by at most T = sum 2 d^m (1 + alpha m n), where sum 2 d^m = 2 d^m0/(1 - d);
    # beyond T = 1e-6 the margin shows nothing, so the claim is inapplicable there
    d = coeff_bound(alpha, n - 1) / 2.0
    reason = "d = 1: the pole of (1 + d z^n)/(1 - d z^n) lies on the circle, so T is infinite"
    if d < 1.0:
        m0 = (extremal.DEFAULT_EXTREMAL_DEGREE + 1) // n + 1  # as in theorem23_tail_bound
        w = extremal.theorem23_tail_bound(alpha, n) / (1.0 - d)
        tail = w + w * alpha * n * (m0 - (m0 - 1) * d) / (1.0 - d)
        reason = f"the dropped tail T = {tail:.3e} exceeds 1e-6" if tail > 1e-6 else None
    if reason is None:
        v = check_me(extremal.theorem23_extremal(alpha, n), alpha, grid)
        ok, detail = v.min_margin >= -MARGIN_TOL - tail, f"within the dropped tail T = {tail:.3e}"
        in_me = _ok("extremal_in_me", ok, v.min_margin, v.witness, detail)
    else:
        in_me = CheckResult("extremal_in_me", CheckStatus.INAPPLICABLE, None, None, reason)

    # coeff_bound and abs at every index of a member in one pass; sqrt and
    # hypot round as math.sqrt and abs do (np.abs of a complex array does not)
    worst_bound = math.inf
    for _ in range(count):
        c = np.array(sample_certified_member(alpha, rng).coeffs, dtype=complex)
        with np.errstate(over="ignore", divide="ignore"):  # coeff_bound is 1/m where m * m overflows
            m = float(alpha) * np.arange(1, len(c) + 1)
            square = m * m
            bound = np.where(np.isinf(square), 1.0 / m, 2.0 / (np.sqrt(square + 1.0) + m))
        gaps = bound - np.hypot(c.real, c.imag)
        worst_bound = min(worst_bound, float(gaps.min(initial=math.inf)))
    return [
        _within("root_identity", worst_root, detail="50 random (alpha, n) plus the given pair"),
        in_me,
        _ok(
            "certified_members_respect_bounds",
            worst_bound >= -MARGIN_TOL,
            worst_bound,
            None,
            f"{count} random certified members, all indices",
        ),
    ]


def _suite_rem1(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n = scalar(p["alpha"], "alpha", above=0, below=1), p["n"]

    w = extremal.remark1_witness(n)
    me_v = check_me(w, 1.0, grid)
    in_me = _ok("witness_in_me_alpha1", me_v.min_margin >= -MARGIN_TOL, me_v.min_margin)

    # the rejection threshold is the integer part of (2-3a)/a; nudge before
    # flooring because e.g. (2 - 3*0.1)/0.1 lands just under 17
    threshold = math.floor((2.0 - 3.0 * alpha) / alpha + 1e-9)
    if n <= threshold:
        return [
            in_me,
            CheckResult(
                "witness_not_starlike",
                CheckStatus.INAPPLICABLE,
                None,
                None,
                f"n={n} does not exceed the threshold {threshold}",
            ),
        ]
    st = check_starlike(w, alpha, grid)
    return [in_me, _verdict("witness_not_starlike", st, False, f"n={n} > threshold {threshold}")]


def _suite_rem2(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = scalar(p["alpha"], "alpha", low=1), p["count"], p["seed"]
    rng = np.random.default_rng(seed + 32)

    v = check_remark2(extremal.theorem21_extremal(alpha), grid)
    bad = LaurentFunction((0j, 3 + 0j))
    return [
        fold_members("holds_for_extremal", [v], ""),
        fold_members(
            "holds_for_certified_members",
            (check_remark2(sample_certified_member(alpha, rng), grid) for _ in range(count)),
            f"{count} random certified members",
        ),
        _verdict("check_has_power", check_remark2(bad, grid), False, "1/z + 3z must violate"),
    ]


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

    agree = 0
    for i in range(count):
        if i % 3 == 0:
            f = sample_certified_member(alpha, rng)
        elif i % 3 == 1:
            base = sample_certified_member(alpha, rng)
            f = LaurentFunction(tuple(3.0 * c for c in base.coeffs))
        else:
            f = sample_wild_function(rng)
        me, kernels = thm31_verdicts(f, alpha, grid, gamma_samples)
        agree += me.status is kernels.status

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

    g, zgp = ring_values(f, grid)
    exact, sampled = phase_margins(g, zgp, alpha, gamma_samples)
    bound = 2.0 * np.pi**2 * alpha * np.abs(zgp) / gamma_samples**2
    slack = float(np.min(bound - (sampled - exact)))
    nonneg = float(np.min(sampled - exact))
    return [
        _ok(
            "status_agreement_with_direct_check",
            agree == count,
            float(agree) / count,
            None,
            f"{agree}/{count} statuses identical",
        ),
        _within("kernel_coeffs_match_fourier_oracle", worst, 1e-10),
        _within("kernel_identity", worst_rel, 1e-10),
        _ok(
            "gamma_discretization_within_bound",
            slack >= 0 and nonneg >= -1e-15,
            slack,
            None,
            f"{gamma_samples} phases",
        ),
    ]


def _suite_thm32(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, eps, count, seed = p["alpha"], p["eps"], p["count"], p["seed"]
    pole = LaurentFunction(())
    delta = p.get("delta", convolution.delta_star(alpha))
    stability = convolution.check_thm32(pole, alpha, eps, delta, count, grid, seed)

    verdicts = [
        check_me(sample, alpha, grid)
        for sample in neighborhood_sample(pole, 10.0 * delta, min(count, 60), seed + 1)
    ]
    refuted = [v for v in verdicts if v.status is Status.NON_MEMBER]
    return [
        *stability,
        _ok(
            "inflated_radius_refuted",
            bool(refuted),
            min(v.min_margin for v in verdicts),
            refuted[0].witness if refuted else None,
            f"{len(refuted)} refutations at delta*10",
        ),
    ]


def _suite_thm41(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 41)

    worst = _boundary_deviation(
        tme.check_tme_exact(tme.sharp_function(alpha, k), alpha) for k in range(1, 21)
    )

    sharp = tme.sharp_function(alpha, n)
    scaled = tme.TmeFunction(tuple(1.01 * m for m in sharp.magnitudes))
    member, margin = tme.check_tme_exact(scaled, alpha)
    circle = check_me(scaled.to_laurent(), alpha, grid)

    members, refutations = [], []
    for i in range(count):
        members.append(sample_tme_member(alpha, rng, boundary=(i % 4 == 0)))
        bad = sample_tme_member(alpha, rng, boundary=True)
        bad = tme.TmeFunction(tuple(1.01 * m for m in bad.magnitudes))
        refutations.append(check_me(bad.to_laurent(), alpha, grid))
    members_check = fold_members(
        "members_in_me",
        [check_me(f.to_laurent(), alpha, grid) for f in members],
        f"{count} random members",
    )
    if not all(tme.check_tme_exact(f, alpha)[0] for f in members):
        members_check = replace(members_check, status=CheckStatus.FAIL, margin=-math.inf)
    return [
        _within("sharp_functions_margin_zero", worst),
        _ok(
            "scaled_sharp_function_refuted",
            (not member) and circle.status is Status.NON_MEMBER,
            circle.min_margin,
            circle.witness,
            f"exact margin {margin:.3e}",
        ),
        members_check,
        _ok(
            "scaled_members_refuted",
            all(v.status is Status.NON_MEMBER for v in refutations),
            max(v.min_margin for v in refutations),
            None,
            f"{count} random boundary members scaled by 1.01",
        ),
    ]


def _suite_cor1(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 81)

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

    worst_margin = math.inf
    for _ in range(count):
        k = int(rng.integers(1, 12))
        lam = rng.dirichlet(np.ones(k + 1))
        f = tme.recompose(tuple(float(x) for x in lam), alpha)
        _, margin = tme.check_tme_exact(f, alpha)
        worst_margin = min(worst_margin, margin)

    devs = []
    for k in range(1, 11):
        lam = np.array(tme.decompose(tme.sharp_function(alpha, k), alpha))
        lam[k] -= 1.0
        devs.append(np.max(np.abs(lam)))
    return [
        _within("decompose_recompose_roundtrip", worst),
        _ok("convex_combinations_are_members", worst_margin >= -EXACT_TOL, worst_margin),
        # np.max, unlike max, keeps a NaN deviation so that it fails the check
        _within("extreme_points_decompose_to_unit_weight", float(np.max(devs))),
    ]


def _suite_cor2(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, count, seed = p["alpha"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 82)

    eq = tme.sharp_function(alpha, 1).to_laurent()
    worst_low = 0.0
    worst_high = 0.0
    for r in (0.3, 0.6, 0.9):
        lower, upper = tme.distortion_bounds(alpha, r)
        at_r = abs(eval_g(eq, complex(r))) / r
        at_ir = abs(eval_g(eq, complex(0, r))) / r
        worst_low = max(worst_low, abs(at_r - lower))
        worst_high = max(worst_high, abs(at_ir - upper))
    kappa = min(tme.check_distortion(sample_tme_member(alpha, rng), alpha) for _ in range(count))
    return [
        _ok(
            "bounds_hold_for_members",
            kappa >= -EXACT_TOL,
            kappa,
            None,
            f"{count} random members, for every r in (0, 1), from the coefficients",
        ),
        _within("equality_function_attains_lower_at_r", worst_low, 1e-9),
        _within("equality_function_attains_upper_at_ir", worst_high, 1e-9),
    ]


def _ratio_grid(f: LaurentFunction, grid: DiscGrid) -> DiscGrid:
    """The unit circle with grid's angles when sum |a_k| < 1, else grid.

    The sum keeps g_f and g_{S_n} (whose coefficients are a subset) zero-free
    on the closed disc, so Re(f/S_n) and Re(S_n/f) are harmonic there and
    take their minima on |z| = 1.
    """
    if math.fsum(abs(c) for c in f.coeffs) < 1.0:
        return DiscGrid.circle(grid.angular_samples)
    return grid


def _suite_thm42(p: dict, grid: DiscGrid) -> list[CheckResult]:
    alpha, n, count, seed = p["alpha"], p["n"], p["count"], p["seed"]
    rng = np.random.default_rng(seed + 42)

    reports = []
    for _ in range(count):
        f = sample_hypothesis_member(alpha, rng)
        n_f = int(rng.integers(1, 9))
        reports.append(partial_sums.check_ratio_bounds(f, alpha, n_f, _ratio_grid(f, grid)))
    applicable = all(r.applicable for r in reports)
    worst = min((min(r.margins) for r in reports), default=math.inf)

    # 1/z - z^n/d_n attains both of check_ratio_bounds' bounds on the circle:
    # f/S_n = 1 - z^{n+1}/d_n the first at z = 1, S_n/f the second where z^{n+1} = -1
    f16 = partial_sums.eq16_function(alpha, n)
    s16 = partial_sum(f16, n)
    sharp = partial_sums.check_ratio_bounds(f16, alpha, n, _ratio_grid(f16, grid))
    turn = np.exp(1j * np.pi / (n + 1))
    # np.max, unlike max, keeps a NaN deviation so that it fails the check
    attained = float(np.max(np.abs((
        (eval_g(f16, 1.0) / eval_g(s16, 1.0)).real - sharp.bound_f_over_s,
        (eval_g(s16, turn) / eval_g(f16, turn)).real - sharp.bound_s_over_f,
    ))))

    a0_margins = []
    for _ in range(20):
        f = sample_hypothesis_member(alpha, rng)
        witha0 = LaurentFunction((0.3 + 0j,) + f.coeffs[1:])
        n_f = int(rng.integers(1, 9))
        rep = partial_sums.check_ratio_bounds(witha0, alpha, n_f, _ratio_grid(witha0, grid))
        a0_margins.append(min(rep.margins))
    violated = sum(m < -MARGIN_TOL for m in a0_margins)
    return [
        _ok(
            "ratio_bounds_hold_for_members",
            applicable and worst >= -MARGIN_TOL,
            worst,
            None,
            f"{count} random members, random n in 1..8",
        ),
        _within(
            "sharp_function_attains_bounds",
            attained,
            detail="1/z - z^n/d_n: Re(f/S_n) at z = 1 and Re(S_n/f) at z = e^{i pi/(n+1)}",
        ),
        CheckResult(
            "nonzero_a0_observation",
            CheckStatus.INDETERMINATE,
            min(a0_margins),
            None,
            f"bounds violated for {violated} of 20 perturbed members; "
            "recorded as observation only, the hypothesis says nothing about a_0",
        ),
    ]


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

# parameter -> its kind and bounds for series.scalar; a suite may bound alpha further.
# alpha < 2^1018 keeps the samplers' weights 1 + alpha(n + 1), n <= 40, finite
_PARAMS = {
    "alpha": (float, {"low": 0, "below": 2.0**1018}),
    "n": (int, {"low": 1}),
    "count": (int, {"low": 1}),
    "seed": (int, {"low": 0}),
    "gamma_samples": (int, {"low": 4}),
    "eps": (float, {"above": 0, "below": 1}),
    "delta": (float, {"above": 0}),
}


def run_suite(name: str, params: dict | None = None) -> VerificationReport:
    """Run one verification suite (or "all") and return its report.

    params may override the suite defaults: alpha, n, count, seed, eps,
    delta, gamma_samples where the suite uses them; None leaves a default.
    series.scalar checks each against _PARAMS: n, count, seed and
    gamma_samples must be ints or numpy integers (2.0 is refused), and every
    value must be in range. "all" takes only the seed, since each suite keeps
    its own defaults. Unknown suite and parameter names are rejected.
    """
    t0 = time.perf_counter()
    if name not in SUITE_IDS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_IDS)}")
    params = {key: value for key, value in (params or {}).items() if value is not None}
    unknown = [key for key in params if key not in _PARAMS]
    if unknown:
        raise ValueError(f"{unknown[0]} is not a suite parameter; choose from {', '.join(_PARAMS)}")
    params = {key: scalar(value, key, _PARAMS[key][0], **_PARAMS[key][1]) for key, value in params.items()}
    if name == "all":
        ignored = sorted(params.keys() - {"seed"})
        if ignored:
            raise ValueError(f"suite all takes only seed, not {', '.join(ignored)}")
        seed = params.get("seed", 0)
        checks: list[CheckResult] = []
        inputs: dict = {"seed": seed}
        for sub, (_, defaults) in _SUITES.items():
            report = run_suite(sub, {"seed": seed} if "seed" in defaults else {})
            inputs[sub] = report.inputs
            checks.extend(replace(c, name=f"{sub}/{c.name}") for c in report.checks)
    else:
        suite, defaults = _SUITES[name]
        inputs = {**defaults, **params}
        checks = suite(inputs, DiscGrid.default())
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(name, inputs, tuple(checks), runtime_ms)


# -------------------------------------------------------------------- IO

def _read_json(path: str | Path):
    """The JSON value in path; bytes that are not UTF-8 and nesting too deep
    to parse are a ValueError, and a syntax error stays a JSONDecodeError;
    each message starts with path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


def load_series(path: str | Path) -> LaurentFunction:
    """Read the series JSON ({"coeffs": [[re, im], ...]}); unknown keys are
    ignored, malformed entries are rejected with their index."""
    return deserialize_coeffs(_read_json(path))


def load_tme(path: str | Path) -> tme.TmeFunction:
    """Read either {"magnitudes": [a1, ...]} or a convertible series file."""
    data = _read_json(path)
    if isinstance(data, dict) and "magnitudes" in data:
        return tme.TmeFunction(data["magnitudes"])  # TmeFunction names each bad entry
    return tme.TmeFunction.from_laurent(deserialize_coeffs(data))


def save_report(report: VerificationReport, path: str | Path) -> None:
    """Write the report as stable, strict JSON (sorted keys, two-space
    indent). A NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
