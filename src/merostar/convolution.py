"""Convolution characterization of ME(alpha) and neighborhood stability.

The characterizing family of kernels, one per phase gamma in (-pi, pi]:

    h_gamma(z) = (1 + z*(alpha e^{i gamma} - 1)) / (z (1-z)^2)
               = 1/z + sum_{k>=0} (1 + alpha (k+1) e^{i gamma}) z^k

and the identity z*(f * h_gamma)(z) = g(z) + alpha e^{i gamma} z g'(z), whose
real part is positive for every gamma exactly when f is in ME(alpha):
minimizing over gamma gives Re g - alpha |z g'|, the ME margin itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassSpec, Family, MembershipVerdict, Rule, check_me, coeff_weight, decide
from .reporting import CheckResult, CheckStatus, fold_members
from .series import DiscGrid, LaurentFunction, eval_g, eval_g_prime, random_support, ring_values, scalar

__all__ = [
    "KernelSpec",
    "kernel",
    "convolve_with_kernel",
    "phase_margins",
    "thm31_verdicts",
    "stability_premise",
    "neighborhood_sample",
    "delta_star",
    "check_thm32",
]

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class KernelSpec:
    """Order parameter and phase of one characterizing kernel."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", ClassSpec(Family.ME, self.alpha).alpha)
        # normalize the phase into (-pi, pi]
        g = math.remainder(scalar(self.gamma, "gamma"), TAU)
        if g <= -math.pi:
            g += TAU
        object.__setattr__(self, "gamma", g)


def kernel(spec: KernelSpec, degree: int) -> LaurentFunction:
    """Expansion of h_gamma truncated at the given degree.

    Closed-form coefficients c_k = 1 + alpha (k+1) e^{i gamma}; at alpha = 0
    every c_k is 1 and the kernel degenerates to the convolution identity.
    """
    degree = scalar(degree, "degree", int, low=0)
    phase = complex(math.cos(spec.gamma), math.sin(spec.gamma))
    return LaurentFunction(tuple(1.0 + spec.alpha * (k + 1) * phase for k in range(degree + 1)))


def phase_margins(g, zgp, alpha: float, gamma_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Margins of Re[g + alpha e^{i gamma} z g'] over gamma at each of the
    values g, z g' (for a grid, ring_values gives them in grid.points order).

    Returns (exact, sampled): the exact minimum over all phases, which is
    the ME margin, and the minimum over M = gamma_samples phases 2 pi j / M
    (exact itself at alpha = 0). sampled never drops below exact, and the
    gap is at most alpha |z g'| pi^2 / (2 M^2).
    """
    gamma_samples = scalar(gamma_samples, "gamma_samples", int, low=4)
    spec = ClassSpec(Family.ME, alpha)
    alpha = spec.alpha
    exact = spec.rule.margins(alpha, g, zgp)
    if not alpha:
        return exact, exact
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN count as degenerate
        w = alpha * zgp
        # min_j cos(arg w + gamma_j) = -cos(distance from the nearest sampled
        # angle to pi), computed directly instead of looping over j; the gap
        # 1 - cos(dist) is taken as 2 sin^2(dist/2), which keeps its relative
        # accuracy instead of cancelling two margins near 1
        step = TAU / gamma_samples
        residue = np.mod(math.pi - np.angle(w), step)
        dist = np.minimum(residue, step - residue)
        return exact, exact + np.abs(w) * 2.0 * np.sin(dist / 2.0) ** 2


def thm31_verdicts(
    f: LaurentFunction, alpha: float, grid: DiscGrid, gamma_samples: int
) -> tuple[MembershipVerdict, MembershipVerdict]:
    """The ME verdict of f and the verdict of the kernel family at
    gamma_samples phases, each on the unit circle where a bound decides it,
    else on the grid's rings from the outermost inward (see classes.decide);
    both read one evaluation of f per circle or ring.

    The sampled margin is the least of gamma_samples margins
    Re[g + alpha e^{i gamma_j} z g'], each harmonic with the ME margin's
    Lipschitz bound, so its rule takes the ME weight alpha.
    """
    spec = ClassSpec(Family.ME, alpha)
    kernels = Rule(lambda g, zgp, a: phase_margins(g, zgp, a, gamma_samples)[1], False)
    values = functools.cache(ring_values)  # shared by both rules, dropped on return
    sampled = decide(kernels, spec.alpha, f, grid, values)  # checks gamma_samples first
    return decide(spec.rule, spec.alpha, f, grid, values), sampled


def convolve_with_kernel(f: LaurentFunction, alpha: float, gamma: float, z):
    """z*(f*h_gamma)(z) computed from the right-hand side of the identity."""
    alpha, gamma = ClassSpec(Family.ME, alpha).alpha, scalar(gamma, "gamma")  # gamma as given, not normalised
    phase = complex(math.cos(gamma), math.sin(gamma))
    return eval_g(f, z) + alpha * phase * np.asarray(z) * eval_g_prime(f, z)


def stability_premise(
    f: LaurentFunction, alpha: float, eps: float, grid: DiscGrid
) -> MembershipVerdict:
    """Check that (f - eps/z)/(1 - eps) is a sampled member of ME(alpha).

    The shifted function keeps the pole and divides every tail coefficient
    by (1 - eps); its ME margin at z is (margin_f(z) - eps)/(1 - eps), so the
    premise says the margin of f itself stays above eps.
    """
    eps = scalar(eps, "eps", above=0, below=1)
    shifted = LaurentFunction(tuple(c / (1.0 - eps) for c in f.coeffs))
    return check_me(shifted, alpha, grid)


def neighborhood_sample(
    f: LaurentFunction, delta: float, count: int, seed: int
) -> list[LaurentFunction]:
    """Deterministic perturbations of f with weighted tail distance <= delta.

    Every third sample lies exactly on the sphere sum k|a_k - b_k| = delta;
    the first eight of those are single-index axis spikes b_k = a_k + delta/k
    for k = 1..8 (worst-case directions, independent of the seed), the rest
    spread sphere mass over random index sets with random phases. Interior
    samples scale the same construction by u ~ U(0,1).
    """
    delta = scalar(delta, "delta", low=0)
    count = scalar(count, "count", int, low=1)
    rng = np.random.default_rng(scalar(seed, "seed", int, low=0))
    samples: list[LaurentFunction] = []
    spikes_placed = 0
    for i in range(count):
        on_sphere = i % 3 == 0
        if on_sphere and spikes_placed < 8:
            spikes_placed += 1
            indices, weights, phases, scale = np.array([spikes_placed]), 1.0, 1.0, delta
        else:
            indices, weights = random_support(rng, 1, 40, 13)
            phases = np.exp(1j * rng.uniform(0.0, TAU, len(indices)))
            scale = delta if on_sphere else delta * float(rng.uniform(0.0, 1.0))
        coeffs = np.zeros(max(len(f.coeffs), int(indices.max()) + 1), dtype=complex)
        coeffs[: len(f.coeffs)] = f.coeffs
        coeffs[indices] += (scale * weights / indices) * phases
        samples.append(LaurentFunction(coeffs.tolist()))
    return samples


def delta_star(alpha: float) -> float:
    """The neighborhood radius 1/(1 + 2 alpha) that Theorem 3.2 covers."""
    return 1.0 / coeff_weight(ClassSpec(Family.ME, alpha).alpha, 1)


def check_thm32(
    f: LaurentFunction,
    alpha: float,
    eps: float,
    delta: float,
    count: int,
    grid: DiscGrid,
    seed: int,
) -> list[CheckResult]:
    """Neighborhood stability: if the strengthened premise holds, every
    sampled function within delta of f must be a member of ME(alpha).

    Returns the checks "premise" and "neighborhood_members". delta must lie
    in (0, delta_star], where delta_star = 1/(1 + 2 alpha) is the radius the
    conclusion covers, and delta < eps < 1 is required for the premise to
    have any force. A premise failure makes both checks inapplicable rather
    than failed.
    """
    delta = scalar(delta, "delta", above=0, high=delta_star(alpha))
    eps = scalar(eps, "eps", above=delta, below=1)
    count, seed = scalar(count, "count", int, low=1), scalar(seed, "seed", int, low=0)
    premise = stability_premise(f, alpha, eps, grid)
    if not premise.is_member:
        return [
            CheckResult(
                "premise",
                CheckStatus.INAPPLICABLE,
                premise.min_margin,
                premise.witness,
                "premise margin does not clear eps; conclusion not claimed",
            ),
            CheckResult(
                "neighborhood_members",
                CheckStatus.INAPPLICABLE,
                None,
                None,
                "skipped: premise not established",
            ),
        ]
    verdicts = [
        check_me(sample, alpha, grid)
        for sample in neighborhood_sample(f, delta, count, seed)
    ]
    return [
        CheckResult("premise", CheckStatus.PASS, premise.min_margin, premise.witness),
        fold_members("neighborhood_members", verdicts, f"all {count} samples are members"),
    ]
