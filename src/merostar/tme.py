"""The negative-coefficient subclass: exact membership, extreme points,
distortion bounds.

For f(z) = 1/z - sum_{n>=1} a_n z^n with a_n >= 0, membership in ME(alpha)
is equivalent to sum_n (1 + alpha(n+1)) a_n <= 1 (the sufficient condition
becomes a characterization), which makes everything here exact rather than
sampled: the class is the convex hull of 1/z and the single-term boundary
functions f_n(z) = 1/z - z^n/(1 + alpha(n+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classes import ClassSpec, Family, coeff_sufficient_me, coeff_term, coeff_weight
from .series import LaurentFunction, scalar, scalars

__all__ = [
    "TmeFunction",
    "check_tme_exact",
    "decompose",
    "recompose",
    "distortion_bounds",
    "check_distortion",
    "sharp_function",
]


@dataclass(frozen=True)
class TmeFunction:
    """Magnitudes (a_1, ..., a_N) of f(z) = 1/z - sum a_n z^n; all >= 0.

    Index 0 of the tuple stores a_1 (there is no constant term in this
    form). Converts losslessly to the general series type.
    """

    magnitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitudes", scalars(self.magnitudes, "magnitudes", low=0))

    def to_laurent(self) -> LaurentFunction:
        return LaurentFunction((0j, *(np.negative(self.magnitudes) + 0j).tolist()))  # the bits of -m + 0j

    @classmethod
    def from_laurent(cls, f: LaurentFunction) -> "TmeFunction":
        """Strict conversion: requires a_0 = 0 and real nonpositive tail."""
        if f.coeffs and f.coeffs[0] != 0:
            raise ValueError("constant coefficient must be 0 for the negative form")
        mags = []
        for n, c in enumerate(f.coeffs[1:], start=1):
            if c.imag != 0 or c.real > 0:
                raise ValueError(f"coefficient at index {n} must be real and <= 0, got {c}")
            mags.append(-c.real)
        while mags and mags[-1] == 0:
            mags.pop()
        return cls(tuple(mags))


def check_tme_exact(f: TmeFunction, alpha: float) -> tuple[bool, float]:
    """Exact two-sided membership test: sum (1 + alpha(n+1)) a_n <= 1.

    Returns (member, 1 - sum). This is the coefficient certificate
    coeff_sufficient_me, which on the negative-coefficient form decides both
    directions; EXACT_TOL of slack keeps boundary functions inside.
    """
    return coeff_sufficient_me((0.0, *f.magnitudes), alpha)


def sharp_function(alpha: float, n: int) -> TmeFunction:
    """Boundary member f_n(z) = 1/z - z^n/(1 + alpha(n+1)): weighted sum
    exactly 1."""
    n = scalar(n, "n", int, low=1)
    mags = [0.0] * n
    mags[n - 1] = 1.0 / coeff_weight(ClassSpec(Family.ME, alpha).alpha, n)
    return TmeFunction(tuple(mags))


def decompose(f: TmeFunction, alpha: float) -> tuple[float, ...]:
    """Convex weights (lambda_0, lambda_1, ..., lambda_N) of f over the
    extreme points: lambda_n = (1 + alpha(n+1)) a_n for n >= 1, the
    certificate's coeff_term, and lambda_0 (the weight of the bare pole)
    absorbs the slack 1 - sum.

    Rejects non-members, whose lambda_0 would be negative.
    """
    member, margin = check_tme_exact(f, alpha)
    if not member:
        raise ValueError(f"not a member: weighted sum exceeds 1 by {-margin}")
    lambdas = [coeff_term(alpha, n, m) for n, m in enumerate(f.magnitudes, start=1)]
    lambda0 = max(margin, 0.0)  # clamp the certified-boundary dust
    return (lambda0, *lambdas)


def recompose(weights: Sequence[float], alpha: float) -> TmeFunction:
    """Build sum lambda_k f_k from convex weights (lambda_0 first).

    Weights must be nonnegative and sum to 1 within 1e-9. The output always
    passes the exact membership test.
    """
    alpha = ClassSpec(Family.ME, alpha).alpha
    ws = scalars(weights, "weights", low=0)
    if not ws:
        raise ValueError("weights must be non-empty")
    total = math.fsum(ws)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {total}")
    mags = [w / coeff_weight(alpha, n) for n, w in enumerate(ws[1:], start=1)]
    while mags and mags[-1] == 0:
        mags.pop()
    return TmeFunction(tuple(mags))


def _spread(alpha: float, r: float) -> float:
    """Corollary 2's spread r/(1 + 2 alpha): the class's |f| lies within it of
    1/r on |z| = r."""
    return r / coeff_weight(alpha, 1)


def distortion_bounds(alpha: float, r: float) -> tuple[float, float]:
    """Two-sided bound on |f(z)| at |z| = r over the class:
    1/r -+ r/(1 + 2 alpha)."""
    r = scalar(r, "r", above=0, below=1)
    spread = _spread(ClassSpec(Family.ME, alpha).alpha, r)
    return 1.0 / r - spread, 1.0 / r + spread


def check_distortion(f: TmeFunction, alpha: float) -> float:
    """kappa = 1/(1 + 2 alpha) - sum a_n, which decides Corollary 2 for every
    r in (0, 1); ValueError for a non-member.

    With s(r) = sum a_n r^{n+1}, |z f(z)| lies in [1 - s, 1 + s] on |z| = r
    and z = r attains 1 - s (H. Silverman, Univalent functions with negative
    coefficients, Proc. AMS 51, 1975). Both slacks to the bounds are then
    r (1/(1 + 2 alpha) - sum a_n r^{n-1}) >= r kappa, with kappa the infimum
    of slack/r as r -> 1. kappa >= 0 for members: 1 + alpha(n+1) >= 1 + 2 alpha.
    """
    member, _ = check_tme_exact(f, alpha)  # validates alpha
    if not member:
        raise ValueError("distortion bounds only apply to members")
    return math.fsum((_spread(alpha, 1.0), *(-a for a in f.magnitudes)))
