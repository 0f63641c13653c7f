"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct power sums, dense scans,
discrete Fourier inversion. Slow and obvious beats fast and shared-fate.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np


def naive_eval_g(coeffs, z: complex) -> complex:
    """1 + sum a_n z^{n+1} the slow way, term by term with explicit powers."""
    total = complex(1.0, 0.0)
    for n, a in enumerate(coeffs):
        total += complex(a) * z ** (n + 1)
    return total


def naive_eval_g_prime(coeffs, z: complex) -> complex:
    total = complex(0.0, 0.0)
    for n, a in enumerate(coeffs):
        total += (n + 1) * complex(a) * z**n
    return total


def central_difference(func, z: complex, h: float = 1e-6) -> complex:
    return (func(z + h) - func(z - h)) / (2.0 * h)


def fourier_coeffs(gfun, count: int, radius: float = 0.5, samples: int = 1024):
    """Taylor coefficients of analytic g by discrete Fourier inversion."""
    nodes = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    values = np.asarray([gfun(z) for z in nodes], dtype=complex)
    hat = np.fft.fft(values) / samples
    return hat[:count] / radius ** np.arange(count)


def brute_gamma_min(g: complex, w: complex, m: int) -> float:
    """min over j of Re[g + w e^{i gamma_j}], gamma_j = 2 pi j / m, by loop."""
    best = math.inf
    for j in range(m):
        gam = 2.0 * math.pi * j / m
        val = (g + w * cmath.exp(1j * gam)).real
        best = min(best, val)
    return best


def naive_certificate_sum(coeffs, alpha: float) -> float:
    """sum over n >= 0 of (1 + alpha(n+1)) |a_n|, plain accumulation."""
    total = 0.0
    for n, a in enumerate(coeffs):
        total += (1.0 + alpha * (n + 1)) * abs(complex(a))
    return total


def naive_hypothesis_sum(coeffs, alpha: float) -> float:
    """sum over k >= 1 of (1 + alpha(k+1)) |a_k|; index 0 deliberately out."""
    total = 0.0
    for k, a in enumerate(coeffs):
        if k >= 1:
            total += (1.0 + alpha * (k + 1)) * abs(complex(a))
    return total


def rational_g_thm21(alpha: float):
    """Closed-form analytic companion (1 + c z)/(1 - c z) of the order-sharp
    function, as a callable for Fourier inversion."""
    c = math.sqrt(1.0 + alpha * alpha) - alpha
    return lambda z: (1.0 + c * z) / (1.0 - c * z)


def rational_g_thm23(alpha: float, n: int):
    """Closed form (1 + d z^n)/(1 - d z^n) of the bound-attaining function."""
    d = math.sqrt(alpha * alpha * n * n + 1.0) - alpha * n
    return lambda z: (1.0 + d * z**n) / (1.0 - d * z**n)


def mp_me_margin(coeffs, alpha: float, z: complex, dps: int = 50) -> float:
    """Re g - alpha |z g'| at the point z, summed term by term in dps-digit
    arithmetic; z and the coefficients are taken exactly as given."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        g, zgp, power = mpmath.mpc(1), mpmath.mpc(0), zz
        for n, a in enumerate(coeffs):
            term = mpmath.mpc(a) * power  # a_n z^{n+1}
            g += term
            zgp += (n + 1) * term
            power *= zz
        return float(g.real - alpha * abs(zgp))
