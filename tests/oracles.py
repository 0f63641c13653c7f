"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct power sums, dense scans,
discrete Fourier inversion. Slow and obvious beats fast and shared-fate.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

import mpmath
import numpy as np
from mpmath.libmp import from_float, from_man_exp, libmpi, mpf_ge


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


def margin_csv_bytes(grid, margins) -> bytes:
    """The `check --csv` file as csv.writer writes it: a header, then one row
    per point of grid.points of repr'd radius, theta, re, im and margin."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["radius", "theta", "re", "im", "margin"])
    for i, (z, m) in enumerate(zip(grid.points, margins)):
        r = grid.radii[i // grid.angular_samples]
        th = float(grid.thetas[i % grid.angular_samples])
        writer.writerow([repr(r), repr(th), repr(float(z.real)), repr(float(z.imag)), repr(float(m))])
    return buf.getvalue().encode("utf-8")


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


def delta_distance(f, g) -> float:
    """Weighted tail distance sum_{k>=1} k |a_k - b_k| of two series, the
    shorter one padded with zeros. Index 0 carries no weight, so this is a
    pseudometric (it ignores a_0)."""
    longest = max(len(f.coeffs), len(g.coeffs))
    a = list(f.coeffs) + [0j] * (longest - len(f.coeffs))
    b = list(g.coeffs) + [0j] * (longest - len(g.coeffs))
    return math.fsum(k * abs(a[k] - b[k]) for k in range(1, longest))


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


def mp_class_margin(coeffs, family: str, alpha: float, z: complex, dps: int = 50) -> float:
    """The margin of class "me", "mf" or "starlike" at z in dps-digit
    arithmetic, skipping zero coefficients (so sparse series of high degree
    stay cheap); z and the coefficients are taken exactly as given."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        g, zgp = mpmath.mpc(1), mpmath.mpc(0)
        for n, a in enumerate(coeffs):
            if a:
                term = mpmath.mpc(a) * zz ** (n + 1)  # a_n z^{n+1}
                g += term
                zgp += (n + 1) * term
        if family == "me":
            return float(g.real - alpha * abs(zgp))
        ratio = zgp / g
        return float((1 - alpha) - (abs(ratio) if family == "mf" else ratio.real))


def _iv_margin(terms, family: str, alpha, z, prec: int = 53):
    """Interval enclosure (lo, hi) of the class margin over the complex
    interval z, from the intervals (a_n, (n+1) a_n) of the coefficients;
    mpmath.iv's own primitives on raw intervals, without its object layer."""
    mul, add = libmpi.mpci_mul, libmpi.mpci_add
    zero = (libmpi.mpi_zero, libmpi.mpi_zero)
    g, zgp, power = (libmpi.mpi_one, libmpi.mpi_zero), zero, z
    for a, na in terms:
        g = add(g, mul(a, power, prec), prec)  # a_n z^{n+1}
        zgp = add(zgp, mul(na, power, prec), prec)
        power = mul(power, z, prec)
    if family == "me":
        return libmpi.mpi_sub(g[0], libmpi.mpi_mul(alpha, libmpi.mpci_abs(zgp, prec), prec), prec)
    ratio = libmpi.mpci_div(zgp, g, prec)  # raises ZeroDivisionError when g's enclosure holds 0
    part = libmpi.mpci_abs(ratio, prec) if family == "mf" else ratio[0]
    return libmpi.mpi_sub(libmpi.mpi_sub(libmpi.mpi_one, alpha, prec), part, prec)


def iv_circle_min_at_least(coeffs, family: str, alpha: float, bound: float, depth: int = 14) -> bool:
    """True when interval arithmetic (mpmath.iv's primitives) proves the
    class margin >= bound on all of |z| = 1: the circle is split into arcs,
    and an arc whose enclosure does not clear the bound is halved, down to
    2^-depth of the circle."""
    prec = 53

    def point(x):
        return (from_float(float(x)), from_float(float(x)))

    terms = []
    for n, a in enumerate(coeffs):
        a = complex(a)
        a_iv = (point(a.real), point(a.imag))
        terms.append((a_iv, libmpi.mpci_mul((point(n + 1), libmpi.mpi_zero), a_iv, prec)))
    alpha_iv, bound = point(alpha), from_float(float(bound))
    two_pi = libmpi.mpi_shift(libmpi.mpi_pi(prec), 1)
    arcs = [(j, j + 1, 4) for j in range(16)]  # [lo, hi] / 2^level of the circle
    while arcs:
        lo, hi, level = arcs.pop()
        turn = (from_man_exp(lo, -level), from_man_exp(hi, -level))
        cos, sin = libmpi.mpi_cos_sin(libmpi.mpi_mul(two_pi, turn, prec), prec)
        try:
            enclosure = _iv_margin(terms, family, alpha_iv, (cos, sin), prec)
            if mpf_ge(enclosure[0], bound):
                continue
        except ZeroDivisionError:
            pass
        if level >= depth:
            return False
        arcs += [(2 * lo, 2 * lo + 1, level + 1), (2 * lo + 1, 2 * hi, level + 1)]
    return True
