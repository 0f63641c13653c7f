"""Ratio bounds between a function and its partial sums.

Under the weighted hypothesis sum_{k>=1} d_k |a_k| <= 1 with
d_k = 1 + alpha(k+1), both

    Re(f(z)/S_n(z)) > 1 - 1/d_n    and    Re(S_n(z)/f(z)) > d_n/(1 + d_n)

hold on the whole disc. 1/z - z^n/d_n attains both on the unit circle: the
first at z = 1, the second where z^{n+1} = -1. Ratios are evaluated through
g, so f/S_n = g_f/g_{S_n} never sees the pole; the hypothesis keeps both
denominators zero-free in exact arithmetic (tail mass < 1), so degenerate
grid points indicate noise and are excluded but counted. Where sum |a_k| < 1
both ratios are harmonic on the closed disc, so their minima lie on |z| = 1
(H. Silverman, J. Math. Anal. Appl. 209, 1997).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .classes import coeff_sufficient_me, coeff_weight
from .series import DiscGrid, LaurentFunction, partial_sum, ring_transform, scalar
from .tme import sharp_function
from .tolerances import ZERO_TOL

__all__ = ["RatioBoundReport", "check_ratio_bounds", "eq16_function"]


def eq16_function(alpha: float, n: int) -> LaurentFunction:
    """Sharp function 1/z - z^n/d_n: hypothesis sum exactly 1 and
    f/S_n = 1 - z^{n+1}/d_n. It is the extreme point f_n of the
    negative-coefficient class."""
    return sharp_function(alpha, n).to_laurent()


@dataclass(frozen=True)
class RatioBoundReport:
    """Observed grid minima of both ratios against their exact bounds.

    applicable is False when the hypothesis fails (the bounds are then not
    claimed); excluded_points counts grid points skipped because one of the
    denominators was numerically zero.
    """

    n: int
    d_n: float
    bound_f_over_s: float
    bound_s_over_f: float
    observed_min_f_over_s: float
    observed_min_s_over_f: float
    hypothesis_margin: float
    applicable: bool
    excluded_points: int

    @property
    def margins(self) -> tuple[float, float]:
        return (
            self.observed_min_f_over_s - self.bound_f_over_s,
            self.observed_min_s_over_f - self.bound_s_over_f,
        )


def check_ratio_bounds(
    f: LaurentFunction, alpha: float, n: int, grid: DiscGrid
) -> RatioBoundReport:
    """Least Re(f/S_n), Re(S_n/f) against the bounds above, on grid or, where sum |a_k| < 1, its unit circle."""
    n = scalar(n, "n", int, low=1)
    # the hypothesis is the coefficient certificate with a_0 left out; it validates alpha
    holds, margin = coeff_sufficient_me((0j, *f.coeffs[1:]), alpha)
    d_n = coeff_weight(alpha, n)
    with suppress(OverflowError):  # abs and fsum raise beyond float range, where the grid stays
        if math.fsum(map(abs, f.coeffs)) < 1.0:
            grid = DiscGrid.circle(grid.angular_samples)
    gf, gs = ring_transform([f.g_coeffs, partial_sum(f, n).g_coeffs], grid)
    degenerate = (np.abs(gf) < ZERO_TOL) | (np.abs(gs) < ZERO_TOL)
    excluded = int(np.count_nonzero(degenerate))
    if excluded == len(grid):
        raise ValueError("all grid points degenerate")
    if excluded:
        gf, gs = gf[~degenerate], gs[~degenerate]
    f_over_s, s_over_f = np.real(gf / gs), np.real(gs / gf)
    return RatioBoundReport(
        n=n,
        d_n=d_n,
        bound_f_over_s=1.0 - 1.0 / d_n,
        bound_s_over_f=d_n / (1.0 + d_n),
        observed_min_f_over_s=float(f_over_s.min()),
        observed_min_s_over_f=float(s_over_f.min()),
        hypothesis_margin=margin,
        applicable=holds,
        excluded_points=excluded,
    )
