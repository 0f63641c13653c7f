"""Constructors for the sharp and separating functions used by the suites.

Each returns a LaurentFunction truncated at a caller-chosen degree. The two
geometric-tail families report their truncation error through the matching
*_tail_bound helpers (largest dropped coefficient magnitude; the dropped tail
is a geometric series so this is an honest scale).
"""

from __future__ import annotations

import math

from .classes import coeff_bound
from .series import LaurentFunction, scalar

__all__ = [
    "theorem21_extremal",
    "theorem21_tail_bound",
    "theorem23_extremal",
    "theorem23_tail_bound",
    "remark1_witness",
    "mf_not_me_witness",
    "mf_not_me_tail_bound",
    "starlike_not_mf_witness",
    "DEFAULT_EXTREMAL_DEGREE",
]

DEFAULT_EXTREMAL_DEGREE = 64


def theorem21_extremal(alpha: float, degree: int = DEFAULT_EXTREMAL_DEGREE) -> LaurentFunction:
    """Boundary function of ME(alpha) for alpha >= 1.

    g(z) = (1 + cz)/(1 - cz) with c = sqrt(1+alpha^2) - alpha, i.e.
    f(z) = 1/z + sum_n 2 c^{n+1} z^n truncated at the given degree. Its ME
    margin is 0 at z = -1, and its starlikeness order functional
    1 - Re(zg'/g) is 1 - 1/alpha at z = 1 and 1 + 1/alpha at z = -1.
    """
    alpha, degree = scalar(alpha, "alpha", low=1), scalar(degree, "degree", int, low=1)
    c = coeff_bound(alpha, 0) / 2.0  # root of c^2 + 2*alpha*c - 1 = 0
    return LaurentFunction(tuple(complex(2.0 * c ** (n + 1)) for n in range(degree + 1)))


def theorem21_tail_bound(alpha: float, degree: int = DEFAULT_EXTREMAL_DEGREE) -> float:
    """Magnitude of the first dropped coefficient, 2 c^{degree+2}."""
    return 2.0 * (coeff_bound(alpha, 0) / 2.0) ** (scalar(degree, "degree", int, low=1) + 2)


def theorem23_extremal(
    alpha: float, n: int, degree: int = DEFAULT_EXTREMAL_DEGREE
) -> LaurentFunction:
    """Function attaining the coefficient bound at index n-1.

    g(z) = (1 + d z^n)/(1 - d z^n) with d = sqrt(alpha^2 n^2 + 1) - alpha*n,
    so f(z) = 1/z + sum_{m>=1} 2 d^m z^{mn-1}. The coefficient at index n-1
    equals coeff_bound(alpha, n-1) exactly.
    """
    n, degree = scalar(n, "n", int, low=1), scalar(degree, "degree", int, low=1)
    d = coeff_bound(alpha, n - 1) / 2.0  # root of 1 - d^2 - 2*alpha*n*d = 0
    coeffs = [0j] * (degree + 1)
    m = 1
    while m * n - 1 <= degree:
        coeffs[m * n - 1] = complex(2.0 * d**m)
        m += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return LaurentFunction(tuple(coeffs))


def theorem23_tail_bound(alpha: float, n: int, degree: int = DEFAULT_EXTREMAL_DEGREE) -> float:
    """Magnitude 2 d^m of the first dropped term (smallest m with mn-1 > degree)."""
    n, degree = scalar(n, "n", int, low=1), scalar(degree, "degree", int, low=1)
    d = coeff_bound(alpha, n - 1) / 2.0
    m = (degree + 1) // n + 1
    return 2.0 * d**m


def remark1_witness(n: int) -> LaurentFunction:
    """f(z) = 1/z + z^n/(n+2): a boundary member of ME(1) (weight sum exactly
    1) that leaves STARLIKE(alpha) once n exceeds (2-3*alpha)/alpha."""
    n = scalar(n, "n", int, low=1)
    coeffs = [0j] * (n + 1)
    coeffs[n] = complex(1.0 / (n + 2))
    return LaurentFunction(tuple(coeffs))


def mf_not_me_witness(degree: int = 30) -> LaurentFunction:
    """Truncation of e^z/z: inside MF(0) yet outside ME(1).

    The dropped tail is below 1/(degree+2)!, invisible at double precision
    for the default degree 30.
    """
    degree = scalar(degree, "degree", int, low=10)
    coeffs, fact = [], 1.0
    for n in range(degree + 1):
        fact *= n + 1
        coeffs.append(1.0 / fact)  # 1/(n+1)!
    return LaurentFunction(tuple(coeffs))


def mf_not_me_tail_bound(degree: int = 30) -> float:
    """The scale 1/(degree+2)! of the tail that mf_not_me_witness drops."""
    degree = scalar(degree, "degree", int, low=10)
    try:
        return 1.0 / math.factorial(degree + 2)
    except OverflowError:  # (degree+2)! is beyond float range from degree 169
        return 1 / math.factorial(degree + 2)  # exact; below 169 it differs in the last bit


def starlike_not_mf_witness() -> LaurentFunction:
    """(1-z)^2/z = 1/z - 2 + z: starlike of order 0 but not in MF(0)."""
    return LaurentFunction((-2 + 0j, 1 + 0j))
