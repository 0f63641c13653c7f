import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merostar.classes import Status, check_me, verdict_from_margins
from merostar.convolution import (
    KernelSpec,
    check_thm32,
    convolve_with_kernel,
    kernel,
    neighborhood_sample,
    phase_margins,
    stability_premise,
)
from merostar.extremal import mf_not_me_witness, remark1_witness
from merostar.harness import sample_certified_member, sample_wild_function
from merostar.reporting import CheckStatus
from merostar.series import (
    DiscGrid,
    LaurentFunction,
    eval_g,
    eval_g_prime,
    hadamard,
    ring_values,
)

import oracles

GRID = DiscGrid.default()
POLE = LaurentFunction([])


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_kernel_phase_normalized(gamma):
    spec = KernelSpec(1.0, gamma)
    assert -math.pi < spec.gamma <= math.pi
    # normalization never moves the phase off its residue class
    assert math.remainder(spec.gamma - gamma, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_kernel_spec_rejects_negative_alpha():
    with pytest.raises(ValueError):
        KernelSpec(-1.0, 0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_kernel_spec_rejects_a_non_finite_phase(gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        KernelSpec(1.0, gamma)


def test_kernel_alpha_zero_is_hadamard_identity():
    h = kernel(KernelSpec(0.0, 1.3), degree=12)
    assert all(c == 1.0 for c in h.coeffs)
    f = LaurentFunction([2.0, -1.0j, 0.25])
    assert hadamard(f, h).coeffs == f.coeffs


def test_kernel_coefficient_magnitudes():
    for gamma in (0.1, 1.0, -2.0, math.pi):
        h = kernel(KernelSpec(1.5, gamma), degree=20)
        for k, c in enumerate(h.coeffs):
            cap = 1.0 + 1.5 * (k + 1)
            assert abs(c) <= cap + 1e-12
            assert abs(c) < cap - 1e-9  # equality needs gamma = 0
    h0 = kernel(KernelSpec(1.5, 0.0), degree=20)
    for k, c in enumerate(h0.coeffs):
        assert abs(c) == pytest.approx(1.0 + 1.5 * (k + 1), rel=1e-15)


def test_kernel_matches_fourier_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(-math.pi, math.pi))
        h = kernel(KernelSpec(alpha, gamma), degree=14)
        factor = alpha * np.exp(1j * gamma) - 1.0
        oracle = oracles.fourier_coeffs(lambda z: (1.0 + z * factor) / (1.0 - z) ** 2, 16)
        got = np.concatenate(([1.0 + 0j], np.asarray(h.coeffs)))
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_closed_form_gamma_minimum_matches_brute_scan():
    rng = np.random.default_rng(10)
    for _ in range(64):
        f = sample_wild_function(rng)
        alpha = float(rng.uniform(0.0, 2.5))
        z = complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65)) or 0.3 + 0j
        m = int(rng.choice([8, 17, 256]))
        grid = DiscGrid((abs(z),), 8)
        exact, sampled = phase_margins(*ring_values(f, grid), alpha, m)
        for j, p in enumerate(grid.points):
            g = complex(eval_g(f, p))
            w = alpha * p * complex(eval_g_prime(f, p))
            brute = oracles.brute_gamma_min(g, w, m)
            assert sampled[j] == pytest.approx(brute, abs=1e-12)
            assert exact[j] == pytest.approx(g.real - abs(w), abs=1e-12)
            assert sampled[j] >= exact[j] - 1e-15


def test_sampled_gamma_gap_within_quadratic_bound():
    rng = np.random.default_rng(14)
    f = sample_certified_member(1.0, rng)
    for m in (8, 64, 256):
        exact, sampled = phase_margins(*ring_values(f, GRID), 1.0, m)
        gap = sampled - exact
        zgp = np.abs(GRID.points * eval_g_prime(f, GRID.points))
        bound = 2.0 * np.pi**2 * 1.0 * zgp / m**2
        assert np.all(gap >= -1e-15)
        assert np.all(gap <= bound + 1e-15)


def test_check_thm31_agrees_with_direct_check():
    # the kernel family at the default 256 phases decides as the direct check does
    rng = np.random.default_rng(16)
    for i in range(30):
        if i % 2:
            f = sample_wild_function(rng)
        else:
            f = sample_certified_member(0.7, rng)
        _, sampled = phase_margins(*ring_values(f, GRID), 0.7, 256)
        assert verdict_from_margins(sampled, GRID.points).status is check_me(f, 0.7, GRID).status


def test_check_thm31_pole_and_arguments():
    exact, sampled = phase_margins(*ring_values(POLE, GRID), 1.0, gamma_samples=64)
    assert np.all(exact == 1.0) and np.all(sampled == 1.0)
    for gamma_samples in (3, 0):
        with pytest.raises(ValueError):
            phase_margins(*ring_values(POLE, GRID), 1.0, gamma_samples)
    with pytest.raises(ValueError):
        phase_margins(*ring_values(POLE, GRID), -1.0, 256)


def test_thm31_margins_at_alpha_zero_are_re_g_where_zg_prime_overflows():
    # no phase term at alpha = 0, so an overflowing z g' leaves both margins at Re g
    f = LaurentFunction([0.1, 1e308])
    exact, sampled = phase_margins(*ring_values(f, GRID), 0.0, 256)
    re_g = np.real(eval_g(f, GRID.points))
    finite = np.isfinite(re_g)
    assert finite.any()
    assert np.array_equal(sampled[finite], exact[finite])
    assert np.array_equal(exact[finite], re_g[finite])


def test_exp_witness_rejected_by_kernel_check():
    _, sampled = phase_margins(*ring_values(mf_not_me_witness(), GRID), 1.0, 256)
    assert verdict_from_margins(sampled, GRID.points).status is Status.NON_MEMBER


def test_kernel_identity_against_hadamard():
    rng = np.random.default_rng(18)
    f = sample_certified_member(1.3, rng)
    for _ in range(64):
        z = complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65))
        if z == 0:
            z = 0.25 + 0.25j
        gamma = float(rng.uniform(-math.pi, math.pi))
        h = kernel(KernelSpec(1.3, gamma), f.truncation_degree)
        lhs = eval_g(hadamard(f, h), z)
        rhs = convolve_with_kernel(f, 1.3, gamma, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_stability_premise_examples():
    assert stability_premise(POLE, 1.0, 0.5, GRID).status is Status.SAMPLED_MEMBER
    # scaling the boundary witness by (1 - eps) makes the shifted function
    # the witness itself, so the premise margin is the witness margin
    w = remark1_witness(1)
    eps = 0.25
    scaled = LaurentFunction(tuple((1.0 - eps) * c for c in w.coeffs))
    prem = stability_premise(scaled, 1.0, eps, GRID)
    direct = check_me(w, 1.0, GRID)
    assert prem.status is direct.status
    assert prem.min_margin == pytest.approx(direct.min_margin, abs=1e-12)


def test_stability_premise_small_eps_recovers_plain_check():
    rng = np.random.default_rng(20)
    f = sample_certified_member(1.0, rng)
    prem = stability_premise(f, 1.0, 1e-9, GRID)
    plain = check_me(f, 1.0, GRID)
    assert prem.min_margin == pytest.approx(plain.min_margin, abs=1e-6)


def test_stability_premise_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            stability_premise(POLE, 1.0, eps, GRID)


def test_neighborhood_sample_distances():
    delta = 1.0 / 3.0
    samples = neighborhood_sample(POLE, delta, 60, seed=42)
    assert len(samples) == 60
    on_sphere = 0
    for s in samples:
        d = oracles.delta_distance(POLE, s)
        assert d <= delta + 1e-12
        if abs(d - delta) <= 1e-9:
            on_sphere += 1
    assert on_sphere >= 20  # every third sample sits on the sphere


def test_neighborhood_sample_axis_spikes_come_first():
    delta = 0.5
    samples = neighborhood_sample(POLE, delta, 24, seed=1)
    spikes = [samples[i] for i in range(0, 24, 3)]
    for k, s in enumerate(spikes, start=1):
        assert s.coeffs[k] == pytest.approx(delta / k, abs=1e-15)
        assert sum(1 for c in s.coeffs if c != 0) == 1


def test_neighborhood_sample_zero_delta_and_determinism():
    base = LaurentFunction([0.1, 0.2j])
    for s in neighborhood_sample(base, 0.0, 9, seed=5):
        # samples are padded with explicit zero coefficients up to the
        # perturbation range; the tail metric sees them as identical
        assert oracles.delta_distance(s, base) == 0.0
        assert s.coeffs[0] == base.coeffs[0]
        tail = s.coeffs[1:]
        while tail and tail[-1] == 0:
            tail = tail[:-1]
        assert tail == base.coeffs[1:]
    a = neighborhood_sample(base, 0.4, 30, seed=7)
    b = neighborhood_sample(base, 0.4, 30, seed=7)
    assert [s.coeffs for s in a] == [t.coeffs for t in b]
    c = neighborhood_sample(base, 0.4, 30, seed=8)
    assert [s.coeffs for s in a] != [t.coeffs for t in c]


def test_neighborhood_sample_monotone_in_delta():
    small = neighborhood_sample(POLE, 0.1, 15, seed=3)
    for s in small:
        assert oracles.delta_distance(POLE, s) <= 0.2 + 1e-12  # valid for any larger ball


def test_neighborhood_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        neighborhood_sample(POLE, -0.1, 5, seed=0)
    with pytest.raises(ValueError):
        neighborhood_sample(POLE, 0.1, 0, seed=0)


def test_check_thm32_pole_neighborhood_all_members():
    checks = check_thm32(POLE, 1.0, eps=0.5, delta=1.0 / 3.0, count=60, grid=GRID, seed=0)
    assert all(c.status is not CheckStatus.FAIL for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["premise"].status is CheckStatus.PASS
    assert by_name["neighborhood_members"].status is CheckStatus.PASS
    assert "60" in by_name["neighborhood_members"].detail


def test_check_thm32_premise_failure_is_inapplicable():
    f = LaurentFunction([0.0, 0.8])
    checks = check_thm32(f, 1.0, eps=0.5, delta=1.0 / 3.0, count=10, grid=GRID, seed=0)
    assert [c.name for c in checks] == ["premise", "neighborhood_members"]
    for c in checks:
        assert c.status is CheckStatus.INAPPLICABLE  # inapplicable is not a failure


def test_check_thm32_parameter_validation():
    with pytest.raises(ValueError):
        check_thm32(POLE, 1.0, eps=0.2, delta=1.0 / 3.0, count=5, grid=GRID, seed=0)  # eps <= delta
    with pytest.raises(ValueError, match="delta"):
        check_thm32(POLE, 1.0, eps=0.5, delta=0.4, count=5, grid=GRID, seed=0)  # delta > delta_star
    with pytest.raises(ValueError, match="delta"):
        check_thm32(POLE, 1.0, eps=0.5, delta=0.0, count=5, grid=GRID, seed=0)
    with pytest.raises(ValueError):
        check_thm32(POLE, 1.0, eps=0.5, delta=1.0 / 3.0, count=0, grid=GRID, seed=0)


def test_check_thm32_shrunken_radius_still_passes():
    checks = check_thm32(POLE, 2.0, eps=0.3, delta=0.1, count=30, grid=GRID, seed=11)
    assert all(c.status is CheckStatus.PASS for c in checks)
