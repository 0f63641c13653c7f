"""Membership functionals and verdicts for the three disc classes, the
members of Family (TME(alpha) is not one: tme.check_tme_exact decides it).

The classes, all over the punctured unit disc E with g = z*f:

    ME(alpha):       Re g(z) > alpha * |z g'(z)|            (alpha >= 0)
    MF(alpha):       |z g'(z)/g(z)| < 1 - alpha             (0 <= alpha < 1)
    STARLIKE(alpha): Re(z g'(z)/g(z)) < 1 - alpha           (0 <= alpha < 1)

One table maps each family to its margin, a Rule (ClassSpec.rule), and
decide folds a rule's margins into a verdict; NaN alone marks a point where
a margin is undefined (|g| < ZERO_TOL for a rule that divides by g), and the
fold treats it like an overflow: no witness, no member. g is a polynomial,
so each margin extends continuously to the closed disc and is superharmonic
there (for MF and STARLIKE once g has no zero in it): its minimum over the
disc lies on |z| = 1. The checks therefore sample the unit circle first. A
sampled minimum that clears a Lipschitz bound on the gaps between samples
plus a rounding bound proves membership; for MF and STARLIKE it needs no
winding number (see _circle_bound). A least sample below -MARGIN_TOL beyond
its own rounding bound refutes: the same bounds, taken along the radius,
prove a witness one step inside the disc, where nothing is evaluated (see
_radial_witness). Anything else (ties, a |g| near 0 at the least sample,
zeros of g on the circle, non-finite values) is sampled on the grid's
outermost ring at M' angles, the least M 2^k at or above the length of g,
whose samples do not alias: the continuous margin's minimum over the disc
inside that ring lies on it (for MF and STARLIKE, a margin of -alpha or less
where g has zeros inside it). A ring with a non-finite margin and no
negative one is followed by the next ring inward. A negative margin refutes
and nonnegative margins are evidence. MembershipVerdict.proof says which
path decided; CertifiedMember is reserved for the coefficient certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .series import DiscGrid, LaurentFunction, eval_g, eval_g_prime, ring_values, scalar
from .tolerances import EXACT_TOL, MARGIN_TOL, ZERO_TOL

__all__ = [
    "Family",
    "ClassSpec",
    "Status",
    "MembershipVerdict",
    "Rule",
    "decide",
    "verdict_from_margins",
    "class_margins",
    "grid_margins",
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


_BELOW_ONE = (Family.MF, Family.STARLIKE)  # the families whose order is < 1


@dataclass(frozen=True)
class ClassSpec:
    """A class family together with its order parameter.

    The one validator of alpha: every public entry point that takes an
    order builds a ClassSpec, so series.scalar refuses text, NaN, infinities
    and out-of-range orders the same way everywhere (alpha >= 0, and < 1 for
    MF and STARLIKE).
    """

    family: Family
    alpha: float

    def __post_init__(self) -> None:
        below = 1 if self.family in _BELOW_ONE else None
        object.__setattr__(self, "alpha", scalar(self.alpha, "alpha", low=0, below=below))

    @property
    def rule(self) -> Rule:
        """The margin rule of the family."""
        return _MARGINS[self.family]


class Status(enum.Enum):
    CERTIFIED_MEMBER = "CertifiedMember"
    SAMPLED_MEMBER = "SampledMember"
    NON_MEMBER = "NonMember"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class MembershipVerdict:
    """status with the least margin evaluated and its point (witness), the
    number of points evaluated, and what decided the status: "circle" (a
    bound on the unit circle), "coefficients" (a coefficient sum) or None
    (sampled on the grid's rings, from the outermost inward). A NonMember's
    witness on the circle path is one proved radial step inside the disc."""

    status: Status
    min_margin: float
    witness: Optional[complex]
    samples_checked: int
    proof: Optional[str] = None

    @property
    def is_member(self) -> bool:
        return self.status in (Status.CERTIFIED_MEMBER, Status.SAMPLED_MEMBER)


def verdict_from_margins(
    margins: np.ndarray, points: np.ndarray, samples: int | None = None
) -> MembershipVerdict:
    """Fold pointwise margins into a verdict.

    A NaN or infinite margin marks a point where the margin is undefined
    (|g| ~ 0 for a rule that divides by g, or overflow): it is never the
    minimum or the witness, and it forces Indeterminate unless a strict
    violation exists elsewhere.
    """
    # argmin lands on a NaN or -inf if there is one, and max on a NaN or +inf
    idx = int(np.argmin(margins)) if margins.size else 0
    finite = bool(margins.size) and math.isfinite(margins[idx]) and math.isfinite(margins.max())
    if not finite:
        usable = np.isfinite(margins)
        if not usable.any():
            raise ValueError("all grid points degenerate; margin undefined everywhere")
        idx = int(np.argmin(np.where(usable, margins, np.inf)))
    min_margin = float(margins[idx])
    witness = complex(points[idx])
    n = int(margins.size if samples is None else samples)
    if min_margin < -MARGIN_TOL:
        return MembershipVerdict(Status.NON_MEMBER, min_margin, witness, n)
    if not finite or min_margin < MARGIN_TOL:
        return MembershipVerdict(Status.INDETERMINATE, min_margin, witness, n)
    return MembershipVerdict(Status.SAMPLED_MEMBER, min_margin, witness, n)


class Rule(NamedTuple):
    """A class margin of g, z g' and alpha, and whether it divides by g (the
    margin is then NaN where |g| < ZERO_TOL); if not, alpha is the weight of
    z g' in its Lipschitz bound on the circle."""

    margin: Callable
    divides: bool

    def margins(self, alpha: float, g, zgp):
        """The margin at each pair of values g, z g'; NaN or inf where undefined."""
        if self.divides:
            g = np.where(np.abs(g) < ZERO_TOL, np.nan, g)  # NaN margins where |g| ~ 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
            return self.margin(g, zgp, alpha)


# Family -> rule. At alpha = 0 the ME margin is Re g alone: 0 * |z g'| would
# be NaN wherever z g' overflows, although Re g decides there.
_MARGINS = {
    Family.ME: Rule(lambda g, zgp, alpha: np.real(g) - (alpha * np.abs(zgp) if alpha else 0.0), False),
    Family.MF: Rule(lambda g, zgp, alpha: (1.0 - alpha) - np.abs(zgp / g), True),
    Family.STARLIKE: Rule(lambda g, zgp, alpha: (1.0 - alpha) - np.real(zgp / g), True),
}
# Remark 2's -Re(z^2 f') = Re g - Re(z g'); it carries no order of its own, and
# check_remark2 passes 1, the weight of z g' in it
_REMARK2 = Rule(lambda g, zgp, alpha: np.real(g) - np.real(zgp), False)


_U = 2.0**-53  # unit roundoff of binary64


def _gamma(n: float) -> float:
    return n * _U / (1.0 - n * _U)


def _value_error(n: int, m: int) -> float:
    """Bound on the error of one ring value of a polynomial with n
    coefficients c_k on the unit circle with m samples, per unit of
    sum (1 + k)|c_k|.

    It covers either branch of ring_values: Horner's rule (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., eq. (5.3), doubled for
    complex arithmetic) and the fold plus an FFT of length m (Higham
    Thm 24.2 with twiddle factors correct to the unit roundoff; the 2-norm
    bound holds for each entry, and ||y||_2 <= sqrt(m) sum |c_k|). The weight
    1 + k covers sample points that miss the circle by an ulp.
    """
    lg = math.log2(m)
    eta = _U + _gamma(4) * (math.sqrt(2.0) + _U)
    fft = math.sqrt(m) * lg * eta / (1.0 - lg * eta)
    return 2.0 * (_gamma(4 * n + 8) + fft + _gamma(n // m + 2))


def _coeff_sums(f: LaurentFunction) -> tuple[float, ...]:
    """S_0, S_1, S_2 and W_0, W_1 of the coefficients c_k of g, with
    S_p = sum k^p |c_k| and W_p = sum (1 + k) k^p |c_k| (inf on overflow).

    The five rows |c_k|, k|c_k|, k^2|c_k|, (1 + k)|c_k| and (1 + k)k|c_k|
    are written into one (5, n) buffer and summed along it in one reduction,
    which gives each sum the bits of its own np.sum.
    """
    n = len(f.g_coeffs)
    rows = np.empty((5, n))
    c, kc, k2c, w0, w1 = rows
    k = np.arange(n, dtype=float)
    np.abs(f.g_coeffs, out=c)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing sums give no bound
        np.multiply(k, c, out=kc)
        np.multiply(k, k, out=k2c)
        k2c *= c
        np.add(k, 1.0, out=w0)
        np.multiply(w0, k, out=w1)
        w0 *= c
        w1 *= c
        sums = rows.sum(axis=1)
    return tuple(sums.tolist())


def _circle_bound(rule: Rule, alpha: float, f: LaurentFunction, sums: tuple[float, ...], g, m: int):
    """(Lipschitz constant in theta, rounding bound) of the rule's margin on
    the unit circle sampled at m points, or None when no bound holds.

    With c the coefficients of g and S_p = sum k^p |c_k|: g moves by at most
    S_1 and z g' by at most S_2 per unit of theta. A rule that does not
    divide by g gets L = S_1 + alpha S_2. Otherwise the least
    |g| on the circle must clear the farthest an arc between samples can
    move g, so |g| >= low > 0 on the circle, where z g'/g then moves by at
    most (S_2 S_0 + S_1^2)/low^2. No winding number is needed: a proved
    member has Re(z g'/g) < 1 on the circle, where its mean is the number of
    zeros of g inside (the argument principle). sums is _coeff_sums(f).
    """
    s0, s1, s2, w0, w1 = sums
    rho = _value_error(len(f.g_coeffs), m)
    if not rule.divides:
        return s1 + alpha * s2, rho * (w0 + alpha * w1) + _gamma(8) * (s0 + alpha * s1)
    if not np.isfinite(g).all():
        return None
    least = float(np.min(np.abs(g))) - rho * w0
    if not least > 2.0 * math.pi / m * s1:  # |g| near 0
        return None
    low = least - math.pi / m * s1
    h = s1 / low  # bounds |z g'/g| on the circle
    return (s2 * s0 + s1 * s1) / (low * low), rho * (w1 + h * w0) / low + _gamma(8) * (1.0 + h)


def _radial_witness(rule: Rule, f: LaurentFunction, sums, m: int, bound, g: complex, least: float, z: complex):
    """The witness (1 - delta) z of the least sample m* = least at z of a
    circle of m angles where g is g(z), or None when no step is proved.

    The true margin is at most m* + err at z and L-Lipschitz along the radius,
    so delta = min(1/2, gap/2L), gap = -m* - MARGIN_TOL - err, leaves it below
    -MARGIN_TOL - gap/2 at the witness. g and z g' move radially by at most
    S_1 and S_2 on |z| <= 1, so a rule that does not divide by g takes
    _circle_bound's (L, err). For one that does, values g, z g' off by at most
    rho W_0, rho W_1 put z g'/g within err of the true one, with |z g'/g| <= h
    = S_1/a and a = |g(z)| - rho W_0. The cap a/(2 S_1) on delta keeps |g| >=
    a/2 along the step, where L = 4 S_2/a + 8 h^2 (with 1/r <= 2 folded in)."""
    _, s1, s2, w0, w1 = sums
    rho = _value_error(len(f.g_coeffs), m)
    a = abs(g) - rho * w0 if rule.divides else math.inf
    if not (a > 0 and s1 > 0):  # S_1 = 0: g = 1, whose margins are never negative
        return None
    if rule.divides:
        h = s1 / a
        lipschitz, err = 4.0 * s2 / a + 8.0 * h * h, rho * (w1 + h * w0) / abs(g) + _gamma(8) * (1.0 + h)
    else:
        lipschitz, err = bound
    gap = -least - MARGIN_TOL - err
    delta = min(0.5, gap / (2.0 * lipschitz), a / (2.0 * s1))  # 0 for an infinite L
    witness = (1.0 - delta) * z
    return witness if gap > 0 and 1.0 - delta < 1.0 and abs(witness) < 1.0 else None


def decide(rule: Rule, alpha: float, f: LaurentFunction, grid: DiscGrid, values=None) -> MembershipVerdict:
    """Verdict of a rule for f.

    values(f, at) gives g and z g' on a grid; by default ring_values. The
    unit circle with M = grid.angular_samples points decides where a bound
    proves the verdict (proof "circle"): a member when the sampled minimum
    exceeds L pi/M plus rounding, a non-member, with min_margin m*, when the
    least sample m* is below -MARGIN_TOL - err and one radial step proves a
    witness inside the disc (see _radial_witness). A positive but unproved
    minimum refines the circle to 4M points once. One argmin and one max
    over a circle's margins give the finite test, the least margin, its
    point and g there. Everything else is sampled on the grid's rings from
    the outermost inward (see the module docstring) to the first that
    refutes or is all finite, and the rings walked are folded together.
    samples_checked counts every point evaluated.
    """
    values = ring_values if values is None else values
    sums = _coeff_sums(f)
    evaluated = 0
    for m in (grid.angular_samples, 4 * grid.angular_samples):
        circle = DiscGrid.circle(m)
        g, zgp = values(f, circle)
        margins = rule.margins(alpha, g, zgp)
        evaluated += m
        i = int(np.argmin(margins))  # a NaN or -inf if there is one, and max a NaN or +inf
        if not (math.isfinite(margins[i]) and math.isfinite(margins.max())):
            break
        least, z = float(margins[i]), complex(circle.points[i])
        bound = _circle_bound(rule, alpha, f, sums, g, m)
        bounded = bound is not None and all(map(math.isfinite, bound))
        if bounded and least - bound[0] * math.pi / m - bound[1] > 0:
            return MembershipVerdict(Status.SAMPLED_MEMBER, least, z, evaluated, "circle")
        witness = _radial_witness(rule, f, sums, m, bound, g[i].item(), least, z)
        if witness is not None:  # gap > 0 puts least below -MARGIN_TOL
            return MembershipVerdict(Status.NON_MEMBER, least, witness, evaluated, "circle")
        if not (bounded and least > 0):
            break
    m = grid.angular_samples
    while m < len(f.g_coeffs):  # M' samples of at most M' coefficients are their DFT: no aliasing
        m *= 2
    walked = []  # (margins, points) of each ring from rho inward
    for r in reversed(grid.radii):
        ring = DiscGrid((r,), m)
        margins = rule.margins(alpha, *values(f, ring))
        evaluated += len(ring)
        walked.append((margins, ring.points))
        finite = np.isfinite(margins)
        if finite.all() or (margins[finite] < -MARGIN_TOL).any():
            break
    return verdict_from_margins(*map(np.concatenate, zip(*walked)), evaluated)


def class_margins(spec: ClassSpec, f: LaurentFunction, points):
    """Pointwise margins of the class condition at arbitrary points, NaN
    where |g| ~ 0 or overflow leaves them undefined. Positive everywhere on E
    means membership. On a DiscGrid, grid_margins is the faster route."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        return spec.rule.margins(spec.alpha, eval_g(f, points), points * eval_g_prime(f, points))


def grid_margins(spec: ClassSpec, f: LaurentFunction, grid: DiscGrid):
    """Class margins at every grid point in grid.points order, NaN where
    |g| ~ 0 or overflow leaves them undefined."""
    return spec.rule.margins(spec.alpha, *ring_values(f, grid))


def check_class(spec: ClassSpec, f: LaurentFunction, grid: DiscGrid) -> MembershipVerdict:
    """Decide the class on the unit circle where a bound proves it, else
    sample the grid's rings from the outermost inward (see decide); the
    verdict alone."""
    return decide(spec.rule, spec.alpha, f, grid)


def check_me(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Decide the ME(alpha) margin Re g - alpha |z g'| (see check_class)."""
    return check_class(ClassSpec(Family.ME, alpha), f, grid)


def check_mf(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Decide the MF(alpha) margin (1 - alpha) - |z g'/g| (see check_class)."""
    return check_class(ClassSpec(Family.MF, alpha), f, grid)


def check_starlike(f: LaurentFunction, alpha: float, grid: DiscGrid) -> MembershipVerdict:
    """Decide the starlikeness margin (1 - alpha) - Re(z g'/g) (see check_class).

    Re(zf'/f) < -alpha rewrites to Re(zg'/g) < 1 - alpha via zf'/f + 1 = zg'/g.
    """
    return check_class(ClassSpec(Family.STARLIKE, alpha), f, grid)


def coeff_weight(alpha: float, n: int) -> float:
    """Weight 1 + alpha*(n+1) of the tail coefficient a_n, for a scalar or an
    array n (unchecked: callers pass a validated alpha).

    coeff_sufficient_me applies the same weights to a whole series at once.
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
    c = f.g_coeffs[1:]
    # hypot rounds as abs of a complex does; an overflowing term is inf, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.hypot(c.real, c.imag)
        terms = (1.0 + alpha * np.arange(1, len(c) + 1)) * moduli
    try:  # inf for a modulus beyond float range (abs() raises there) or a sum that overflows
        total = math.inf if np.isinf(moduli).any() else math.fsum(terms.tolist())
    except OverflowError:
        total = math.inf
    return total <= 1.0 + EXACT_TOL, 1.0 - total


def coeff_bound(alpha: float, n: int) -> float:
    """Sharp bound on |a_n| over ME(alpha): 2/(sqrt(alpha^2(n+1)^2+1) + alpha(n+1)).

    Algebraically 2*(sqrt(alpha^2(n+1)^2+1) - alpha(n+1)); the reciprocal form
    avoids the cancellation of the difference form for large alpha*(n+1). Where
    m = alpha(n+1) squared overflows (beyond about 1.34e154), it is 1/m, the
    value the formula rounds to just below that point.
    """
    alpha = ClassSpec(Family.ME, alpha).alpha
    m = alpha * (scalar(n, "n", int, low=0) + 1)
    square = m * m
    if square == math.inf:
        return 1.0 / m
    return 2.0 / (math.sqrt(square + 1.0) + m)


def check_remark2(f: LaurentFunction, grid: DiscGrid) -> MembershipVerdict:
    """Decide the margin -Re(z^2 f'(z)) = Re g - Re(z g') (see check_class).

    Negative real part of z^2 f' everywhere is implied by membership in
    ME(alpha) for alpha >= 1; this check is the sampled form of that
    implication (it carries no alpha of its own).
    """
    return decide(_REMARK2, 1.0, f, grid)
