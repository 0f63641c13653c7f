"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; the [acceptance] lines print
regardless of capture mode so the gate is readable straight from CI logs.
Criteria re-verify the headline guarantees end to end: the separation
examples, sharp constants, characterizations, neighborhood radii, the
closed-form gamma minimum, decomposition roundtrips, ratio bounds, and
byte-stable reports.
"""

import json
import math
import time

import numpy as np

from merostar import cli
from merostar.classes import (
    Status,
    check_me,
    check_mf,
    check_starlike,
    coeff_bound,
    coeff_sufficient_me,
    coeff_weight,
)
from merostar.convolution import KernelSpec, kernel, neighborhood_sample, thm31_verdicts
from merostar.extremal import (
    mf_not_me_witness,
    remark1_witness,
    starlike_not_mf_witness,
    theorem21_extremal,
    theorem23_extremal,
)
from merostar.harness import (
    sample_certified_member,
    sample_hypothesis_member,
    sample_tme_member,
    sample_wild_function,
)
from merostar.partial_sums import check_ratio_bounds, eq16_function
from merostar.series import (
    DiscGrid,
    LaurentFunction,
    eval_g,
    eval_g_prime,
    partial_sum,
)
from merostar.tme import (
    TmeFunction,
    check_tme_exact,
    decompose,
    distortion_bounds,
    recompose,
    sharp_function,
)

import oracles

GRID = DiscGrid.default()
POLE = LaurentFunction(())


def _announce(capsys, num, fn):
    try:
        ok, detail = fn()
    except Exception as exc:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:2d}: FAIL - crashed: {exc!r}")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_separation_examples(capsys):
    def fn():
        t0 = time.perf_counter()
        expz = mf_not_me_witness(30)
        in_mf = check_mf(expz, 0.0, GRID)
        out_me = check_me(expz, 1.0, GRID)
        square = starlike_not_mf_witness()
        in_star = check_starlike(square, 0.0, GRID)
        out_mf = check_mf(square, 0.0, GRID)
        dt = time.perf_counter() - t0
        ok = (
            in_mf.is_member
            and in_mf.min_margin > 0
            and out_me.status is Status.NON_MEMBER
            and out_me.witness is not None
            and in_star.is_member
            and out_mf.status is Status.NON_MEMBER
            and dt < 5.0
        )
        detail = (
            f"exp: mf margin {in_mf.min_margin:.1e}, me margin {out_me.min_margin:.1e} "
            f"at {out_me.witness:.4f}; square: starlike margin {in_star.min_margin:.1e}, "
            f"mf margin {out_mf.min_margin:.1e}; {dt:.2f}s"
        )
        return ok, detail

    _announce(capsys, 1, fn)


def test_criterion_02_order_sharpness(capsys):
    def fn():
        alpha = 2.0
        f = theorem21_extremal(alpha, 96)
        c = math.sqrt(5.0) - 2.0
        const_ok = abs(f.coeffs[0].real / 2.0 - c) < 1e-12
        # the order functional 1 - Re(zg'/g) approaches 1 - 1/alpha along
        # the positive real axis; the mirrored axis approaches 1 + 1/alpha
        # (odd numerator), checked as a cross-validation
        vals, mirrored = [], []
        for r in (0.9, 0.99, 0.999):
            vals.append(1.0 - (r * eval_g_prime(f, r) / eval_g(f, r)).real)
            vals[-1] = float(vals[-1])
            gm = eval_g(f, -r)
            mirrored.append(float(1.0 - (-r * eval_g_prime(f, -r) / gm).real))
        gaps = [abs(v - 0.5) for v in vals]
        ok = (
            const_ok
            and gaps[0] > gaps[1] > gaps[2]
            and gaps[2] < 0.02
            and abs(mirrored[2] - 1.5) < 0.02
        )
        detail = (
            f"functional at +r: {vals[0]:.5f} > {vals[1]:.5f} > {vals[2]:.5f} -> 0.5 "
            f"(final gap {gaps[2]:.1e}); mirrored -r: {mirrored[2]:.5f} -> 1.5"
        )
        return ok, detail

    _announce(capsys, 2, fn)


def test_criterion_03_boundary_certificates(capsys):
    def fn():
        worst = 0.0
        all_certified = True
        for n in range(1, 21):
            certified, margin = coeff_sufficient_me(remark1_witness(n), 1.0)
            all_certified = all_certified and certified
            worst = max(worst, abs(margin))
        rejected = check_starlike(remark1_witness(18), 0.1, GRID)
        ok = all_certified and worst < 1e-12 and rejected.status is Status.NON_MEMBER
        detail = (
            f"n=1..20 certified at alpha=1, worst |margin| {worst:.1e}; "
            f"n=18 starlike(0.1) margin {rejected.min_margin:.1e} at {rejected.witness:.4f}"
        )
        return ok, detail

    _announce(capsys, 3, fn)


def test_criterion_04_coefficient_bounds(capsys):
    def fn():
        rng = np.random.default_rng(104)
        worst_attain = 0.0
        for _ in range(50):
            alpha = float(rng.uniform(0.0, 4.0))
            n = int(rng.integers(1, 17))
            f = theorem23_extremal(alpha, n)
            worst_attain = max(
                worst_attain, abs(f.coeffs[n - 1].real - coeff_bound(alpha, n - 1))
            )
        worst_violation = -math.inf
        for _ in range(1000):
            alpha = float(rng.uniform(0.0, 4.0))
            f = sample_certified_member(alpha, rng)
            for k, a in enumerate(f.coeffs):
                worst_violation = max(worst_violation, abs(a) - coeff_bound(alpha, k))
        ok = worst_attain < 1e-12 and worst_violation <= 1e-9
        detail = (
            f"50 draws attain the bound within {worst_attain:.1e}; 1000 certified "
            f"members stay under every bound (worst excess {worst_violation:.1e})"
        )
        return ok, detail

    _announce(capsys, 4, fn)


def test_criterion_05_convolution_equivalence(capsys):
    def fn():
        rng = np.random.default_rng(105)
        alpha = 1.0
        agree = 0
        total = 500
        for i in range(total):
            if i % 3 == 0:
                f = sample_certified_member(alpha, rng)
            elif i % 3 == 1:
                base = sample_certified_member(alpha, rng)
                f = LaurentFunction(tuple(3.0 * c for c in base.coeffs))
            else:
                f = sample_wild_function(rng)
            # the kernel family at 64 phases, decided on the unit circle like the direct check
            _, kernels = thm31_verdicts(f, alpha, GRID, 64)
            agree += kernels.status is check_me(f, alpha, GRID).status
        worst = 0.0
        for _ in range(20):
            a = float(rng.uniform(0.0, 3.0))
            gam = float(rng.uniform(-np.pi, np.pi))
            h = kernel(KernelSpec(a, gam), 14)
            factor = a * np.exp(1j * gam) - 1.0
            oracle = oracles.fourier_coeffs(
                lambda z: (1.0 + z * factor) / (1.0 - z) ** 2, 16
            )
            got = np.concatenate(([1.0 + 0j], np.asarray(h.coeffs)))
            worst = max(worst, float(np.max(np.abs(got - oracle))))
        ok = agree == total and worst < 1e-10
        detail = (
            f"{agree}/{total} verdicts agree with the direct check; kernel "
            f"coefficients match the Fourier oracle within {worst:.1e}"
        )
        return ok, detail

    _announce(capsys, 5, fn)


def test_criterion_06_pole_neighborhood(capsys):
    def fn():
        members_ok = True
        worst = math.inf
        refutations = {}
        for alpha in (0.5, 1.0, 2.0):
            delta = 1.0 / coeff_weight(alpha, 1)
            for s in neighborhood_sample(POLE, delta, 500, 106):
                v = check_me(s, alpha, GRID)
                worst = min(worst, v.min_margin)
                members_ok = members_ok and v.is_member
            refutations[alpha] = False
            for s in neighborhood_sample(POLE, 10.0 * delta, 500, 107):
                if check_me(s, alpha, GRID).status is Status.NON_MEMBER:
                    refutations[alpha] = True
                    break
        ok = members_ok and all(refutations.values())
        detail = (
            f"3x500 neighborhood samples all members (worst margin {worst:.1e}); "
            f"10x delta refuted at every alpha"
        )
        return ok, detail

    _announce(capsys, 6, fn)


def test_criterion_07_exact_characterization(capsys):
    def fn():
        worst = 0.0
        flips_ok = True
        witness_ok = True
        for alpha in (0.5, 1.0, 2.0):
            for n in range(1, 21):
                f = sharp_function(alpha, n)
                member, margin = check_tme_exact(f, alpha)
                worst = max(worst, abs(margin))
                if not member:
                    flips_ok = False
                bad = TmeFunction(tuple(1.01 * m for m in f.magnitudes))
                bad_member, _ = check_tme_exact(bad, alpha)
                flips_ok = flips_ok and not bad_member
                v = check_me(bad.to_laurent(), alpha, GRID)
                witness_ok = witness_ok and (
                    v.status is Status.NON_MEMBER
                    and v.proof == "circle"
                    and v.witness.imag == 0.0
                    and 0.9 < v.witness.real < 1.0
                )
        ok = worst < 1e-12 and flips_ok and witness_ok
        detail = (
            f"60 sharp functions: worst |exact margin| {worst:.1e}; every 1.01x "
            f"scaling flips the exact test and is refuted on the circle, with a "
            f"witness on the positive real axis inside the disc"
        )
        return ok, detail

    _announce(capsys, 7, fn)


def test_criterion_08_decomposition_distortion(capsys):
    def fn():
        rng = np.random.default_rng(108)
        radii = rng.uniform(0.05, 0.9999, 1000)
        pts = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
        worst_round = 0.0
        worst_dist = math.inf
        for _ in range(500):
            alpha = float(rng.uniform(0.0, 4.0))
            f = sample_tme_member(alpha, rng, boundary=bool(rng.integers(0, 2)))
            back = recompose(decompose(f, alpha), alpha)
            a, b = np.asarray(f.magnitudes), np.asarray(back.magnitudes)
            m = max(len(a), len(b))
            a = np.pad(a, (0, m - len(a)))
            b = np.pad(b, (0, m - len(b)))
            if m:
                worst_round = max(worst_round, float(np.max(np.abs(a - b))))
            absf = np.abs(eval_g(f.to_laurent(), pts)) / radii
            spread = radii / coeff_weight(alpha, 1)
            margins = np.minimum(absf - (1.0 / radii - spread), (1.0 / radii + spread) - absf)
            worst_dist = min(worst_dist, float(np.min(margins)))
        worst_eq = 0.0
        for alpha in (0.5, 1.0, 2.0):
            eq = sharp_function(alpha, 1).to_laurent()
            for r in (0.3, 0.6, 0.9):
                lower, _ = distortion_bounds(alpha, r)
                worst_eq = max(worst_eq, abs(abs(complex(eval_g(eq, r))) / r - lower))
        ok = worst_round < 1e-12 and worst_dist >= -1e-9 and worst_eq < 1e-9
        detail = (
            f"500 roundtrips within {worst_round:.1e}; distortion margins at "
            f"1000 points >= {worst_dist:.1e}; lower bound attained within {worst_eq:.1e}"
        )
        return ok, detail

    _announce(capsys, 8, fn)


def test_criterion_09_partial_sum_ratios(capsys):
    def fn():
        rng = np.random.default_rng(109)
        worst = math.inf
        applicable = True
        for _ in range(500):
            alpha = float(rng.uniform(0.0, 3.0))
            n = int(rng.integers(1, 9))
            f = sample_hypothesis_member(alpha, rng)
            rep = check_ratio_bounds(f, alpha, n, GRID)
            applicable = applicable and rep.applicable
            worst = min(worst, *rep.margins)
        f16 = eq16_function(1.0, 2)
        d2 = coeff_weight(1.0, 2)
        z = complex(0.9999)
        observed = float(np.real(eval_g(f16, z) / eval_g(partial_sum(f16, 2), z)))
        gap = abs(observed - (1.0 - 1.0 / d2))
        ok = applicable and worst >= -1e-9 and d2 == 4.0 and gap < 1e-3
        detail = (
            f"500 members: both ratio bounds hold (worst margin {worst:.1e}); "
            f"Re(f/S_2)(0.9999) = {observed:.6f} within {gap:.1e} of 3/4"
        )
        return ok, detail

    _announce(capsys, 9, fn)


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    def fn():
        paths = [tmp_path / "all1.json", tmp_path / "all2.json"]
        t0 = time.perf_counter()
        code1 = cli.main(["suite", "--name", "all", "--seed", "7", "--out", str(paths[0])])
        dt = time.perf_counter() - t0
        code2 = cli.main(["suite", "--name", "all", "--seed", "7", "--out", str(paths[1])])
        capsys.readouterr()
        texts = []
        for p in paths:
            lines = p.read_text().splitlines()
            texts.append("\n".join(l for l in lines if '"runtime_ms"' not in l))
        report = json.loads(paths[0].read_text())
        ok = (
            code1 == 0
            and code2 == 0
            and texts[0] == texts[1]
            and report["passed"] is True
            and dt < 60.0
        )
        detail = (
            f"two seeded runs byte-identical modulo runtime "
            f"({len(report['checks'])} checks, {dt:.1f}s < 60s)"
        )
        return ok, detail

    _announce(capsys, 10, fn)
