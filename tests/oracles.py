"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct power sums, dense scans,
discrete Fourier inversion. Slow and obvious beats fast and shared-fate.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import numbers
from dataclasses import replace

import mpmath
import numpy as np
from mpmath.libmp import from_float, from_man_exp, libmpi, mpf_ge
from numpy.polynomial import polynomial as npoly

from merostar.classes import (
    Status,
    _circle_bound,
    _coeff_sums,
    _gamma,
    _radial_witness,
    _value_error,
    decide,
    verdict_from_margins,
)
from merostar.series import DiscGrid, ring_values
from merostar.tolerances import EXACT_TOL, MARGIN_TOL


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


def generator_certificate(coeffs, alpha: float) -> tuple[bool, float]:
    """coeff_sufficient_me as one generator over the coefficients: math.fsum
    of (1 + alpha(n+1)) |a_n| in float arithmetic, inf where the terms are
    finite but their sum is not; (sum <= 1 + EXACT_TOL, 1 - sum)."""
    try:
        total = math.fsum((1.0 + alpha * (n + 1)) * abs(c) for n, c in enumerate(coeffs))
    except OverflowError:
        total = math.inf
    return total <= 1.0 + EXACT_TOL, 1.0 - total


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
    """The margin of class "me", "mf" or "starlike", or of Remark 2's "rem2"
    (Re g - Re(z g'), which ignores alpha), at z in dps-digit arithmetic,
    skipping zero coefficients (so sparse series of high degree stay cheap);
    z and the coefficients are taken exactly as given."""
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
        if family == "rem2":
            return float(g.real - zgp.real)
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


def entrywise_finite_complex(values, what: str) -> tuple[complex, ...]:
    """LaurentFunction's coefficient check one entry at a time: only a tuple,
    list or array is a series, then complex(v) for each entry, naming the
    first that is not a number (text, a bool and None included), is beyond
    float range or is not finite."""
    if not isinstance(values, (tuple, list, np.ndarray)):
        raise ValueError(f"{what} must be a sequence of numbers, not {type(values).__name__}")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, numbers.Complex):
            raise ValueError(f"{what}[{i}] must be a number, not {type(v).__name__}: {v!r}")
        try:
            c = complex(v)
        except OverflowError:  # an integer beyond float range
            raise ValueError(f"{what}[{i}] is beyond float range") from None
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"{what}[{i}] must be finite, got {c!r}")
        out.append(c)
    return tuple(out)


def entrywise_deserialize(data) -> tuple[complex, ...]:
    """The coefficients of a series JSON value, read one entry at a time:
    each entry must be an [re, im] pair, and each part of it a real number
    (not a bool), within float range and finite, named coeffs[i][j]."""
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError('series JSON must be an object with a "coeffs" key')
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise ValueError('"coeffs" must be a list of [re, im] pairs')
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"coeffs[{i}] is not an [re, im] pair: {entry!r}")
        parts = []
        for j, x in enumerate(entry):
            name = f"coeffs[{i}][{j}]"
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{name} must be a number, not {type(x).__name__}: {x!r}")
            try:
                x = float(x)
            except OverflowError:  # a JSON integer beyond float range
                raise ValueError(f"{name} is beyond float range") from None
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
            parts.append(x)
        out.append(complex(*parts))
    return tuple(out)


def entrywise_nonnegative(values, what: str) -> tuple[float, ...]:
    """tme's magnitude and weight check one entry at a time: only a tuple,
    list or array is a sequence, then float(v) for each entry, naming the
    first that is not a real number (text, a bool and None included), is
    beyond float range, not finite or negative."""
    if not isinstance(values, (tuple, list, np.ndarray)):
        raise ValueError(f"{what} must be a sequence of numbers, not {type(values).__name__}")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{what}[{i}] must be a number, not {type(v).__name__}: {v!r}")
        try:
            v = float(v)
        except OverflowError:  # an integer beyond float range
            raise ValueError(f"{what}[{i}] is beyond float range") from None
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{what}[{i}] must be finite and >= 0, got {v!r}")
        out.append(v)
    return tuple(out)


def mp_distortion_slack(magnitudes, alpha: float, r: float, t: float, dps: int = 50) -> float:
    """The distortion slack min(|f| - lower, upper - |f|) at z = r e^{it}, with
    lower, upper = 1/r -+ r/(1 + 2 alpha) and f(z) = 1/z - sum a_n z^n, in
    dps-digit arithmetic; r, t, alpha and the magnitudes are taken exactly as
    given."""
    with mpmath.workdps(dps):
        rr = mpmath.mpf(r)
        z = rr * mpmath.expj(mpmath.mpf(t))
        absf = abs(1 / z - mpmath.fsum(mpmath.mpf(a) * z**n for n, a in enumerate(magnitudes, 1)))
        spread = rr / (1 + 2 * mpmath.mpf(alpha))
        return float(min(absf - (1 / rr - spread), 1 / rr + spread - absf))


def grid_distortion_margins(magnitudes, alpha: float, grid) -> np.ndarray:
    """The distortion slack min(|f| - lower, upper - |f|) at every point of
    grid.points, with lower, upper = 1/r -+ r/(1 + 2 alpha) on its ring and
    f(z) = 1/z - sum a_n z^n evaluated there by Horner's rule: the sampled
    reference for check_distortion's kappa, which bounds each ring's slack
    from below by r kappa."""
    z = grid.points
    g = np.polynomial.polynomial.polyval(z, [1.0, 0.0] + [-a for a in magnitudes])
    r = np.repeat(np.asarray(grid.radii), grid.angular_samples)
    spread = r / (1.0 + 2.0 * alpha)
    absf = np.abs(g) / r  # the ring's |z|; the computed points miss it by rounding
    return np.minimum(absf - (1.0 / r - spread), 1.0 / r + spread - absf)


def allocating_ring_transform(rows, grid) -> np.ndarray:
    """series.ring_transform with a new array for every step: npoly.polyval
    per row on stacks of at most log2(M) coefficients, else the fold of each
    block of M coefficients into zeroed spectra and an inverse FFT into a
    fresh array. The in-place kernel must reproduce its bits."""
    m = grid.angular_samples
    longest = max(len(row) for row in rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if longest <= math.log2(m):
            return np.stack([npoly.polyval(grid.points, row) for row in rows])
        coeffs = np.zeros((len(rows), longest), dtype=complex)
        for padded, row in zip(coeffs, rows):
            padded[: len(row)] = row
        radii = np.asarray(grid.radii)[:, None]
        spectra = np.zeros((len(rows), len(grid.radii), m), dtype=complex)
        for start in range(0, longest, m):
            stop = min(start + m, longest)
            spectra[:, :, : stop - start] += coeffs[:, None, start:stop] * radii ** np.arange(start, stop)
        values = np.fft.ifft(spectra, axis=-1, norm="forward")
    return values.reshape(len(rows), -1)


def masked_verdict_fold(margins, points, samples=None):
    """classes.verdict_from_margins with the isfinite mask on every call, as
    (status value, least finite margin, its point, samples); the first least
    margin wins a tie."""
    usable = np.isfinite(margins)
    if not usable.any():
        raise ValueError("all grid points degenerate; margin undefined everywhere")
    idx = int(np.argmin(np.where(usable, margins, np.inf)))
    least = float(margins[idx])
    n = int(margins.size if samples is None else samples)
    if least < -MARGIN_TOL:
        status = "NonMember"
    elif not usable.all() or least < MARGIN_TOL:
        status = "Indeterminate"
    else:
        status = "SampledMember"
    return status, least, complex(points[idx]), n


def per_power_coeff_sums(g_coeffs) -> tuple[float, ...]:
    """S_p = sum k^p |c_k| for p = 0, 1, 2, then W_0 = sum (1 + k)|c_k| and
    W_1 = sum (1 + k) k |c_k|, one numpy sum each."""
    c = np.abs(g_coeffs)
    k = np.arange(len(c), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        s0, s1, s2 = (float(np.sum(c * k**p)) for p in (0, 1, 2))
        w0, w1 = float(np.sum((1.0 + k) * c)), float(np.sum((1.0 + k) * k * c))
    return s0, s1, s2, w0, w1


def same_bits(a, b) -> bool:
    """Equal arrays of the same shape, NaN where the other has NaN, and the
    same sign bit in every real and imaginary part (so +0.0 is not -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def grid_fold(rule, alpha: float, f, grid):
    """The fallback classes.decide made before it took the outermost ring:
    the rule's margins at every point of every ring of grid, folded by
    masked_verdict_fold, as (status value, least finite margin, its point)."""
    margins = rule.margins(alpha, *ring_values(f, grid))
    return masked_verdict_fold(margins, grid.points)[:3]


def winding_circle_bound(rule, alpha: float, f, sums, g, m: int):
    """classes._circle_bound as it was with its winding test: for a rule
    that divides by g also None when the m samples of g wind around 0, as a
    zero of g inside the circle makes them do. The reference for the bound
    without that test, which must decide every series the same way."""
    s0, s1, s2, w0, w1 = sums
    rho = _value_error(len(f.g_coeffs), m)
    if not rule.divides:
        return s1 + alpha * s2, rho * (w0 + alpha * w1) + _gamma(8) * (s0 + alpha * s1)
    if not np.isfinite(g).all():
        return None
    least = float(np.min(np.abs(g))) - rho * w0
    if not least > 2.0 * math.pi / m * s1:
        return None
    if round(float(np.sum(np.angle(np.roll(g, -1) / g))) / (2.0 * math.pi)) != 0:
        return None  # a zero of g inside: z g'/g has a pole there
    low = least - math.pi / m * s1
    h = s1 / low
    return (s2 * s0 + s1 * s1) / (low * low), rho * (w1 + h * w0) / low + _gamma(8) * (1.0 + h)


def zero_free_inside(g_coeffs, radius: float) -> bool:
    """Whether the polynomial with ascending coefficients g_coeffs, g(0) = 1,
    has no zero in |z| < radius: at once when sum_{k>=1} |c_k| radius^k < 1,
    else from the roots numpy finds."""
    c = np.asarray(g_coeffs, dtype=complex)
    if np.sum(np.abs(c[1:]) * radius ** np.arange(1, len(c))) < 1.0:
        return True
    return bool(np.all(np.abs(np.roots(c[::-1])) >= radius))


def decide_recorded(rule, alpha: float, f, grid):
    """classes.decide with ring_values, and what the evaluation that decided
    gave: (verdict, margins, points) of the circle whose least sample a
    circle NonMember reports (its witness lies inward of that sample and is
    no evaluated point), else of the last circle or ring holding the witness."""
    evaluations = []

    def recording(f, at):
        evaluations.append((at, ring_values(f, at)))
        return evaluations[-1][1]

    verdict = decide(rule, alpha, f, grid, recording)
    if verdict.proof == "circle" and not verdict.is_member:
        at, values = evaluations[-1]
    else:
        at, values = next(e for e in reversed(evaluations) if verdict.witness in e[0].points)
    return verdict, rule.margins(alpha, *values), at.points


def composed_decide(rule, alpha: float, f, grid):
    """classes.decide composed from whole-array steps, as it was before its
    circle fold was inlined: on each circle the isfinite mask over all M
    margins, verdict_from_margins over all M points, then
    dataclasses.replace with proof "circle" of that verdict, as a member or
    with the witness of _radial_witness; the ring walk is decide's own."""
    sums = _coeff_sums(f)
    evaluated = 0
    for m in (grid.angular_samples, 4 * grid.angular_samples):
        circle = DiscGrid.circle(m)
        g, zgp = ring_values(f, circle)
        margins = rule.margins(alpha, g, zgp)
        evaluated += m
        if not np.isfinite(margins).all():
            break
        low = verdict_from_margins(margins, circle.points, evaluated)
        bound = _circle_bound(rule, alpha, f, sums, g, m)
        bounded = bound is not None and all(map(math.isfinite, bound))
        if bounded and low.min_margin - bound[0] * math.pi / m - bound[1] > 0:
            return replace(low, status=Status.SAMPLED_MEMBER, proof="circle")
        at = g[np.argmin(margins)].item()
        witness = _radial_witness(rule, f, sums, m, bound, at, low.min_margin, low.witness)
        if witness is not None:
            return replace(low, witness=witness, proof="circle")
        if not (bounded and low.min_margin > 0):
            break
    m = grid.angular_samples
    while m < len(f.g_coeffs):
        m *= 2
    walked = []
    for r in reversed(grid.radii):
        ring = DiscGrid((r,), m)
        margins = rule.margins(alpha, *ring_values(f, ring))
        evaluated += len(ring)
        walked.append((margins, ring.points))
        finite = np.isfinite(margins)
        if finite.all() or (margins[finite] < -MARGIN_TOL).any():
            break
    return verdict_from_margins(*map(np.concatenate, zip(*walked)), evaluated)
