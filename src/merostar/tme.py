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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classes import (
    ClassSpec,
    Family,
    MembershipVerdict,
    Status,
    class_margins,
    coeff_sufficient_me,
    coeff_weight,
    verdict_from_margins,
)
from .series import DiscGrid, LaurentFunction, scalar, scalars

__all__ = [
    "TmeFunction",
    "check_tme_exact",
    "decompose",
    "recompose",
    "distortion_bounds",
    "check_distortion",
    "sharp_function",
    "refute_on_axis",
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
        return LaurentFunction((0j,) + tuple(-m + 0j for m in self.magnitudes))

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
    return coeff_sufficient_me(f.to_laurent(), alpha)


def sharp_function(alpha: float, n: int) -> TmeFunction:
    """Boundary member f_n(z) = 1/z - z^n/(1 + alpha(n+1)): weighted sum
    exactly 1."""
    n = scalar(n, "n", int, low=1)
    mags = [0.0] * n
    mags[n - 1] = 1.0 / coeff_weight(ClassSpec(Family.ME, alpha).alpha, n)
    return TmeFunction(tuple(mags))


def decompose(f: TmeFunction, alpha: float) -> tuple[float, ...]:
    """Convex weights (lambda_0, lambda_1, ..., lambda_N) of f over the
    extreme points: lambda_n = (1 + alpha(n+1)) a_n for n >= 1 and lambda_0
    (the weight of the bare pole) absorbs the slack 1 - sum.

    Rejects non-members, whose lambda_0 would be negative.
    """
    member, margin = check_tme_exact(f, alpha)
    if not member:
        raise ValueError(f"not a member: weighted sum exceeds 1 by {-margin}")
    lambdas = [coeff_weight(alpha, n) * m for n, m in enumerate(f.magnitudes, start=1)]
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


def distortion_bounds(alpha: float, r: float) -> tuple[float, float]:
    """Two-sided bound on |f(z)| at |z| = r over the class:
    1/r -+ r/(1 + 2 alpha)."""
    r = scalar(r, "r", above=0, below=1)
    alpha = ClassSpec(Family.ME, alpha).alpha
    spread = r / coeff_weight(alpha, 1)
    return 1.0 / r - spread, 1.0 / r + spread


def check_distortion(f: TmeFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Decide lower <= |f(z)| <= upper on each ring |z| = r of the grid from
    the coefficients.

    With s(r) = sum a_n r^{n+1}, the triangle inequality puts |z f(z)| in
    [1 - s, 1 + s] on the ring, and z = r attains 1 - s (H. Silverman,
    Univalent functions with negative coefficients, Proc. AMS 51, 1975).
    The bounds sit symmetrically about 1/r, so the two slacks
    (1 - s)/r - lower and upper - (1 + s)/r are the same number: the ring's
    margin, witnessed at r. It is computed as the lower slack at z = r, the
    way a grid sample there would round it. The verdict folds the rings'
    margins with proof "coefficients".
    """
    member, _ = check_tme_exact(f, alpha)  # validates alpha
    if not member:
        raise ValueError("distortion bounds only apply to members")
    r = np.asarray(grid.radii)
    s = npoly.polyval(r, (0.0, 0.0) + f.magnitudes)
    margins = (1.0 - s) / r - (1.0 / r - r / coeff_weight(alpha, 1))
    return replace(verdict_from_margins(margins, r), proof="coefficients")


def refute_on_axis(f: TmeFunction, alpha: float) -> MembershipVerdict:
    """Targeted non-membership search for the negative-coefficient form.

    The exact test fails exactly when the margin goes negative as r -> 1 on
    the positive real axis, so scan radii 1 - 10^-k, k = 1..8, there. Eight
    samples can refute but not prove: NonMember, else Indeterminate.
    """
    lf = f.to_laurent()
    pts = np.array([1.0 - 10.0 ** (-k) for k in range(1, 9)], dtype=complex)
    v = verdict_from_margins(class_margins(ClassSpec(Family.ME, alpha), lf, pts), pts)
    return v if v.status is Status.NON_MEMBER else replace(v, status=Status.INDETERMINATE)
