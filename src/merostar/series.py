"""Truncated Laurent series with a simple pole of residue 1 at the origin.

Every function handled by this package has the shape

    f(z) = 1/z + a_0 + a_1 z + ... + a_N z^N,

represented by its tail coefficients alone. All evaluation goes through the
analytic companion g(z) = z*f(z), a polynomial with g(0) = 1, so nothing ever
touches the pole. The identities used downstream:

    z^2 f'(z) + z f(z) = z g'(z)
    z f'(z)/f(z) + 1   = z g'(z)/g(z)
    z^2 f'(z)          = z g'(z) - g(z)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "LaurentFunction",
    "DiscGrid",
    "eval_g",
    "eval_g_prime",
    "ring_values",
    "ring_transform",
    "hadamard",
    "partial_sum",
    "random_support",
    "serialize_coeffs",
    "deserialize_coeffs",
]

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 0.9999)
DEFAULT_ANGULAR_SAMPLES = 2048


def _finite_complex(values: Iterable[complex], what: str) -> tuple[complex, ...]:
    out = []
    for i, v in enumerate(values):
        try:
            c = complex(v)
        except OverflowError:  # an integer beyond float range
            raise ValueError(f"{what}[{i}] is beyond float range") from None
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"{what}[{i}] is not finite: {c!r}")
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class LaurentFunction:
    """Tail coefficients (a_0, ..., a_N); the 1/z term is implicit.

    The empty tuple encodes the bare pole f(z) = 1/z (truncation degree -1).
    Instances are immutable and hashable; equality is exact coefficient
    equality.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _finite_complex(self.coeffs, "coeffs"))

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def g_coeffs(self) -> np.ndarray:
        # ascending coefficients of g(z) = z*f(z) = 1 + sum a_n z^{n+1}
        return np.concatenate(([1.0 + 0.0j], np.asarray(self.coeffs, dtype=complex)))

    @cached_property
    def g_prime_coeffs(self) -> np.ndarray:
        return npoly.polyder(self.g_coeffs)

    def __repr__(self) -> str:
        return f"LaurentFunction(degree={self.truncation_degree})"


def eval_g(f: LaurentFunction, z: complex):
    """Evaluate g(z) = z*f(z) = 1 + sum a_n z^{n+1} by Horner recurrence.

    Accepts a scalar or an ndarray of points; g(0) = 1 is legal. This is the
    scalar and off-grid API; ring_values evaluates a whole DiscGrid.
    """
    return npoly.polyval(z, f.g_coeffs)


def eval_g_prime(f: LaurentFunction, z: complex):
    """Evaluate g'(z) = sum (n+1) a_n z^n; consistent with eval_g under
    finite differencing."""
    return npoly.polyval(z, f.g_prime_coeffs)


def ring_values(f: LaurentFunction, grid: DiscGrid) -> tuple[np.ndarray, np.ndarray]:
    """g and z g' at every grid point, as flat arrays in grid.points order."""
    c = f.g_coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN count as degenerate
        kc = np.arange(len(c)) * c
    g, zgp = ring_transform([c, kc], grid)
    return g, zgp


def ring_transform(rows: Sequence[np.ndarray], grid: DiscGrid) -> np.ndarray:
    """Values at every grid point of the polynomials whose ascending
    coefficients are the rows, one row each in grid.points order.

    On the ring |z| = r with M equispaced angles, p(r e^{2 pi i j/M}) =
    sum_k c_k r^k e^{2 pi i jk/M} is one inverse DFT of length M, and the
    coefficients with k >= M fold onto index k mod M exactly (aliasing).
    The whole stack shares one transform per ring. The fold takes M
    coefficients at a time, so memory stays O(N + R*M) per row for N
    coefficients on R rings. Stacks whose longest row has at most log2(M)
    coefficients take Horner's rule on grid.points instead: its cost grows
    with the length and the transform's does not, so it is the cheaper one
    on the shortest series.
    """
    m = grid.angular_samples
    longest = max(len(row) for row in rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        if longest <= math.log2(m):
            return np.stack([npoly.polyval(grid.points, row) for row in rows])
        coeffs = np.zeros((len(rows), longest), dtype=complex)
        for padded, row in zip(coeffs, rows):
            padded[: len(row)] = row
        radii = np.asarray(grid.radii)[:, None]
        spectra = np.zeros((len(rows), len(grid.radii), m), dtype=complex)
        # one block of M coefficients at a time, on every ring at once
        for start in range(0, longest, m):
            stop = min(start + m, longest)
            spectra[:, :, : stop - start] += coeffs[:, None, start:stop] * radii ** np.arange(start, stop)
        values = np.fft.ifft(spectra, axis=-1, norm="forward")
    return values.reshape(len(rows), -1)


def hadamard(f: LaurentFunction, g: LaurentFunction) -> LaurentFunction:
    """Coefficient-wise product; the shared 1/z term is preserved.

    Truncation of the result is the shorter of the two inputs.
    """
    n = min(len(f.coeffs), len(g.coeffs))
    return LaurentFunction(tuple(a * b for a, b in zip(f.coeffs[:n], g.coeffs[:n])))


def partial_sum(f: LaurentFunction, n: int) -> LaurentFunction:
    """Return S_n = 1/z + sum_{k=1}^{n-1} a_k z^k.

    Index 0 is dropped by definition. n = 1 gives the bare pole. Trailing
    zeros of the result are stripped, so S_1 compares equal to LaurentFunction(()).
    """
    if n < 1:
        raise ValueError(f"partial sum index must be >= 1, got {n}")
    kept = list(f.coeffs[:n])
    if kept:
        kept[0] = 0j
    while kept and kept[-1] == 0:
        kept.pop()
    return LaurentFunction(tuple(kept))


@dataclass(frozen=True)
class DiscGrid:
    """Sampling grid: circles of the given radii, equispaced angles on each.

    Radii must lie strictly inside (0,1) and increase; the default schedule
    piles radii toward the boundary because the class conditions are open
    inequalities whose failures concentrate there. z = 0 never appears.
    DiscGrid.circle is the one grid on |z| = 1 itself.
    """

    radii: tuple[float, ...] = DEFAULT_RADII
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii:
            raise ValueError("grid needs at least one radius")
        for r in self.radii:
            if not 0.0 < r < 1.0:
                raise ValueError(f"radius {r} outside (0,1)")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.angular_samples < 8:
            raise ValueError("angular_samples must be >= 8")

    @classmethod
    def default(cls) -> "DiscGrid":
        return cls()

    @classmethod
    @cache  # one instance per M, so its points are computed once
    def circle(cls, angular_samples: int = DEFAULT_ANGULAR_SAMPLES) -> "DiscGrid":
        """M equispaced points of the unit circle, where the margins of a
        truncated series take their minimum over the closed disc."""
        grid = cls((0.5,), angular_samples)  # validates angular_samples
        object.__setattr__(grid, "radii", (1.0,))
        return grid

    @classmethod
    def with_rmax(cls, rmax: float, angular_samples: int = DEFAULT_ANGULAR_SAMPLES) -> "DiscGrid":
        """Default radius schedule capped at rmax (rmax itself included)."""
        if not 0.0 < rmax < 1.0:
            raise ValueError(f"rmax {rmax} outside (0,1)")
        radii = [r for r in DEFAULT_RADII if r < rmax]
        radii.append(rmax)
        return cls(tuple(radii), angular_samples)

    @cached_property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_samples) / self.angular_samples

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as a flat complex array, radius-major order."""
        ring = np.exp(1j * self.thetas)
        return (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()

    def __len__(self) -> int:
        return len(self.radii) * self.angular_samples


def random_support(
    rng: np.random.Generator, lowest: int, highest: int, max_active: int, extra: int = 0
):
    """Random coefficient support shared by the member samplers.

    Draws n in [1, max_active) distinct indices from lowest..highest, then
    Dirichlet(1, ..., 1) weights of length n + extra (extra weights lead).
    Returns (indices, weights).
    """
    n_active = int(rng.integers(1, max_active))
    indices = rng.choice(np.arange(lowest, highest + 1), size=n_active, replace=False)
    return indices, rng.dirichlet(np.ones(n_active + extra))


def serialize_coeffs(f: LaurentFunction) -> dict:
    """JSON-ready form: {"coeffs": [[re, im], ...]}, index i -> a_i."""
    return {"coeffs": [[c.real, c.imag] for c in f.coeffs]}


def deserialize_coeffs(data: dict) -> LaurentFunction:
    """Inverse of serialize_coeffs. Unknown keys are ignored; malformed
    entries (including JSON true/false), integers beyond float range and
    non-finite values are rejected with the offending index."""
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError('series JSON must be an object with a "coeffs" key')
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise ValueError('"coeffs" must be a list of [re, im] pairs')
    out = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"coeffs[{i}] is not an [re, im] pair: {entry!r}")
        try:
            out.append(complex(entry[0], entry[1]))
        except OverflowError:  # a JSON integer beyond float range
            raise ValueError(f"coeffs[{i}] is beyond float range") from None
    return LaurentFunction(tuple(out))
