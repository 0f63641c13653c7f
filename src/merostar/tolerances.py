"""Shared numeric tolerances.

MARGIN_TOL decides strict inequalities sampled on a grid: margins inside
(-MARGIN_TOL, MARGIN_TOL) are treated as undecidable because sharp boundary
functions sit exactly at 0 and must not be misclassified by rounding.

ZERO_TOL marks a denominator as degenerate (|g(z)| below it makes zg'/g
meaningless in double precision).

EXACT_TOL is the slack for identities that hold exactly in real arithmetic
but pick up a unit of dust in floating point, e.g. (n+2) * (1/(n+2)).
"""

__all__ = ["MARGIN_TOL", "ZERO_TOL", "EXACT_TOL"]

MARGIN_TOL = 1e-9
ZERO_TOL = 1e-12
EXACT_TOL = 1e-12
