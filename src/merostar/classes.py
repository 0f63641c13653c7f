"""Membership functionals and verdicts for the three disc classes.

The classes, all over the punctured unit disc E with g = z*f:

    ME(alpha):       Re g(z) > alpha * |z g'(z)|            (alpha >= 0)
    MF(alpha):       |z g'(z)/g(z)| < 1 - alpha             (0 <= alpha < 1)
    STARLIKE(alpha): Re(z g'(z)/g(z)) < 1 - alpha           (0 <= alpha < 1)

One table maps each family to its margin, which the checks evaluate on a
finite grid. A negative
margin is a proof of non-membership (the witness point is returned);
nonnegative margins everywhere are evidence, not proof, so the best sampled
verdict is SampledMember. CertifiedMember is reserved for the coefficient
certificate, which is a genuine sufficient condition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .series import DiscGrid, LaurentFunction, eval_g, eval_g_prime, ring_values
from .tolerances import EXACT_TOL, MARGIN_TOL, ZERO_TOL

__all__ = [
    "Family",
    "ClassSpec",
    "Status",
    "MembershipVerdict",
    "class_margins",
    "me_margins",
    "check_class",
    "check_me",
    "check_mf",
    "check_starlike",
    "coeff_sufficient_me",
    "coeff_bound",
    "coeff_weight",
    "check_remark2",
]


class Family(enum.Enum):
    ME = "me"
    MF = "mf"
    STARLIKE = "starlike"
    TME = "tme"


@dataclass(frozen=True)
class ClassSpec:
    """A class family together with its order parameter.

    The one validator of alpha: every public entry point that takes an
    order builds a ClassSpec, so NaN, infinities and out-of-range orders are
    rejected the same way everywhere.
    """

    family: Family
    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not math.isfinite(a) or a < 0:
            raise ValueError(f"alpha must be finite and >= 0, got {a}")
        if self.family in (Family.MF, Family.STARLIKE) and a >= 1:
            raise ValueError(f"{self.family.value} requires 0 <= alpha < 1, got {a}")


class Status(enum.Enum):
    CERTIFIED_MEMBER = "CertifiedMember"
    SAMPLED_MEMBER = "SampledMember"
    NON_MEMBER = "NonMember"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class MembershipVerdict:
    status: Status
    min_margin: float
    witness: Optional[complex]
    samples_checked: int

    @property
    def is_member(self) -> bool:
        return self.status in (Status.CERTIFIED_MEMBER, Status.SAMPLED_MEMBER)


def _verdict_from_margins(
    margins: np.ndarray,
    points: np.ndarray,
    degenerate: np.ndarray | None = None,
    samples: int | None = None,
) -> MembershipVerdict:
    """Fold pointwise margins into a verdict.

    degenerate marks points whose margin is meaningless (e.g. |g| ~ 0), and
    non-finite margins (overflow) count the same way: they are never the
    minimum or the witness, and they force Indeterminate unless a strict
    violation exists elsewhere.
    """
    usable = np.isfinite(margins)
    if degenerate is not None:
        usable &= ~degenerate
    if not usable.any():
        raise ValueError("all grid points degenerate; margin undefined everywhere")
    idx = int(np.argmin(np.where(usable, margins, np.inf)))
    min_margin = float(margins[idx])
    witness = complex(points[idx])
    n = int(margins.size if samples is None else samples)
    if min_margin < -MARGIN_TOL:
        return MembershipVerdict(Status.NON_MEMBER, min_margin, witness, n)
    if not usable.all() or min_margin < MARGIN_TOL:
        return MembershipVerdict(Status.INDETERMINATE, min_margin, witness, n)
    return MembershipVerdict(Status.SAMPLED_MEMBER, min_margin, witness, n)


# Family -> (margin of the class condition from g, zg' and alpha; whether it
# divides by g, so that points with |g| < ZERO_TOL are degenerate). The
# negative-coefficient class TME is a subclass of ME and shares its margin.
_MARGINS = {
    Family.ME: (lambda g, zgp, alpha: np.real(g) - alpha * np.abs(zgp), False),
    Family.MF: (lambda g, zgp, alpha: (1.0 - alpha) - np.abs(zgp / g), True),
    Family.STARLIKE: (lambda g, zgp, alpha: (1.0 - alpha) - np.real(zgp / g), True),
}
_MARGINS[Family.TME] = _MARGINS[Family.ME]
# Remark 2's -Re(z^2 f') = Re g - Re(z g'); it carries no order of its own
_REMARK2 = (lambda g, zgp, alpha: np.real(g) - np.real(zgp), False)


def _margins(rule, alpha: float, g, zgp):
    margin, divides = rule
    degenerate = None
    if divides:
        degenerate = np.abs(g) < ZERO_TOL
        g = np.where(degenerate, np.nan, g)  # NaN margins where |g| ~ 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        return margin(g, zgp, alpha), degenerate


def class_margins(spec: ClassSpec, f: LaurentFunction, points):
    """Pointwise margins of the class condition at arbitrary points, plus
    the mask of points where |g| ~ 0 makes them meaningless and NaN (None
    for classes whose margin never divides by g). Positive everywhere on E
    means membership. On a DiscGrid, check_class is the faster route."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        return _margins(
            _MARGINS[spec.family], spec.alpha, eval_g(f, points), points * eval_g_prime(f, points)
        )


def me_margins(f: LaurentFunction, alpha: float, points):
    """Margin of the ME(alpha) condition, Re g - alpha*|z g'|, at a scalar
    point or an array of points. Positive on all of E means f in ME(alpha)."""
    return class_margins(ClassSpec(Family.ME, alpha), f, points)[0]


def check_class(
    spec: ClassSpec, f: LaurentFunction, grid: DiscGrid
) -> tuple[MembershipVerdict, np.ndarray]:
    """Sample the class margin on the grid: the verdict, and the margins it
    folds in grid.points order (NaN where |g| ~ 0 leaves them undefined)."""
    margins, degenerate = _margins(_MARGINS[spec.family], spec.alpha, *ring_values(f, grid))
    return _verdict_from_margins(margins, grid.points, degenerate), margins


def check_me(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Sample the ME(alpha) margin on the grid."""
    return check_class(ClassSpec(Family.ME, alpha), f, grid)[0]


def check_mf(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Sample the MF(alpha) margin (1 - alpha) - |z g'/g| on the grid."""
    return check_class(ClassSpec(Family.MF, alpha), f, grid)[0]


def check_starlike(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Sample the starlikeness margin (1 - alpha) - Re(z g'/g).

    Re(zf'/f) < -alpha rewrites to Re(zg'/g) < 1 - alpha via zf'/f + 1 = zg'/g.
    """
    return check_class(ClassSpec(Family.STARLIKE, alpha), f, grid)[0]


def coeff_weight(alpha: float, n: int) -> float:
    """Weight 1 + alpha*(n+1) of the tail coefficient a_n.

    One shared definition backs the sufficient condition, the exact
    negative-coefficient characterization and the partial-sum hypothesis.
    """
    return 1.0 + alpha * (n + 1)


def coeff_sufficient_me(f: LaurentFunction, alpha: float) -> tuple[bool, float]:
    """Sufficient condition: sum_n (1 + alpha(n+1)) |a_n| <= 1.

    Returns (certified, 1 - sum). True certifies membership in ME(alpha) for
    the represented truncation; False is inconclusive, never a refutation.
    The comparison allows EXACT_TOL of dust so boundary functions whose sum
    is exactly 1 in real arithmetic stay certified.
    """
    alpha = ClassSpec(Family.ME, alpha).alpha
    try:
        total = math.fsum(coeff_weight(alpha, n) * abs(c) for n, c in enumerate(f.coeffs))
    except OverflowError:  # finite terms whose sum is beyond float range
        total = math.inf
    return total <= 1.0 + EXACT_TOL, 1.0 - total


def coeff_bound(alpha: float, n: int) -> float:
    """Sharp bound on |a_n| over ME(alpha): 2/(sqrt(alpha^2(n+1)^2+1) + alpha(n+1)).

    Algebraically 2*(sqrt(alpha^2(n+1)^2+1) - alpha(n+1)); the reciprocal form
    avoids the cancellation of the difference form for large alpha*(n+1).
    """
    alpha = ClassSpec(Family.ME, alpha).alpha
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    m = alpha * (n + 1)
    return 2.0 / (math.sqrt(m * m + 1.0) + m)


def check_remark2(f: LaurentFunction, grid: DiscGrid) -> MembershipVerdict:
    """Sample the margin -Re(z^2 f'(z)) = Re g - Re(z g').

    Negative real part of z^2 f' everywhere is implied by membership in
    ME(alpha) for alpha >= 1; this check is the sampled form of that
    implication (it carries no alpha of its own).
    """
    margins, _ = _margins(_REMARK2, 0.0, *ring_values(f, grid))
    return _verdict_from_margins(margins, grid.points)
