"""Truncated Laurent series with a simple pole of residue 1 at the origin.

Every function handled by this package has the shape

    f(z) = 1/z + a_0 + a_1 z + ... + a_N z^N,

represented by its tail coefficients alone. All evaluation goes through the
analytic companion g(z) = z*f(z), a polynomial with g(0) = 1, so nothing ever
touches the pole. The identities used downstream:

    z^2 f'(z) + z f(z) = z g'(z)
    z f'(z)/f(z) + 1   = z g'(z)/g(z)
    z^2 f'(z)          = z g'(z) - g(z)

scalar is the one check of a scalar parameter (an order, a count, a radius)
and scalars of a sequence of numbers; every module validates through them.
"""

from __future__ import annotations

import cmath
import math
import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, starmap
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "scalar",
    "scalars",
    "LaurentFunction",
    "DiscGrid",
    "eval_g",
    "eval_zg_prime",
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


# the entry types that scalars converts in one pass, as scalar would
_PLAIN = {float: {int, float, np.int64, np.float64}}
_PLAIN[complex] = _PLAIN[float] | {complex, np.complex128}


def scalar(value, name: str, kind: type = float, *, low=None, above=None, high=None, below=None):
    """value as a finite kind (float, int or complex) within the bounds given:
    low <= value, above < value, value <= high, value < below.

    The one check of a scalar parameter. It refuses text, bytes, bools, None
    and anything else that is not a real number (for kind complex, not a
    complex number), integers beyond float range and values that are not
    finite; for kind int, anything but an int or a numpy integer, 2.0
    included. Fractions and numpy scalars give what the plain float or int
    gives. Every message starts with name.
    """
    try:
        if type(value) is not kind:  # a plain float, int or complex needs no test or conversion
            number = numbers.Complex if kind is complex else numbers.Real
            # float() and complex() would parse text, and a bool is an int
            if isinstance(value, (str, bytes, bool)) or not isinstance(value, number):
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"{name} must be {noun}, not {type(value).__name__}: {value!r}")
            if kind is int and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            value = kind(value)
        finite = cmath.isfinite(value)
    except OverflowError:  # an integer or fraction beyond float range
        raise ValueError(f"{name} is beyond float range") from None
    if not (
        finite
        and (low is None or value >= low)
        and (above is None or value > above)
        and (high is None or value <= high)
        and (below is None or value < below)
    ):
        bounds = ((">=", low), (">", above), ("<=", high), ("<", below))
        terms = ([] if kind is int else ["finite"]) + [f"{op} {b}" for op, b in bounds if b is not None]
        rule = " and ".join(filter(None, (", ".join(terms[:-1]), terms[-1])))
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def scalars(values, name: str, kind: type = float, **bounds) -> tuple:
    """A tuple, list or array of numbers as a tuple of kind (float or
    complex), each checked by scalar with the bounds; the first bad entry is
    named name[i].

    Entries of the plain types take one pass in C: kind() over the whole
    sequence, the finiteness check, and the bounds on its least and greatest
    entry. Only when that pass fails, or an entry is of another type, does
    scalar run on each entry.
    """
    if not isinstance(values, (tuple, list, np.ndarray)):  # a str or bytes would iterate into entries
        raise ValueError(f"{name} must be a sequence of numbers, not {type(values).__name__}")
    types = set(map(type, values))
    if types <= _PLAIN[kind]:
        with suppress(ValueError, OverflowError):  # the loop below names the bad entry
            out = tuple(values) if types <= {kind} else tuple(map(kind, values))  # kind(x) is x for x of type kind
            if all(map(cmath.isfinite, out)):
                for extreme in (min(out), max(out)) if bounds and out else ():
                    scalar(extreme, name, kind, **bounds)
                return out
    return tuple(scalar(v, f"{name}[{i}]", kind, **bounds) for i, v in enumerate(values))


@dataclass(frozen=True)
class LaurentFunction:
    """Tail coefficients (a_0, ..., a_N); the 1/z term is implicit.

    The empty tuple encodes the bare pole f(z) = 1/z (truncation degree -1).
    Instances are immutable and hashable; equality is exact coefficient
    equality.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", scalars(self.coeffs, "coeffs", complex))

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def g_coeffs(self) -> np.ndarray:
        # ascending coefficients of g(z) = z*f(z) = 1 + sum a_n z^{n+1}
        return np.array((1.0 + 0.0j, *self.coeffs), dtype=complex)

    def __repr__(self) -> str:
        return f"LaurentFunction(degree={self.truncation_degree})"


def eval_g(f: LaurentFunction, z: complex):
    """Evaluate g(z) = z*f(z) = 1 + sum a_n z^{n+1} by Horner recurrence.

    Accepts a scalar or an ndarray of points; g(0) = 1 is legal. This is the
    scalar and off-grid API; ring_values evaluates a whole DiscGrid.
    """
    return npoly.polyval(z, f.g_coeffs)


def eval_zg_prime(f: LaurentFunction, z: complex):
    """Evaluate z g'(z) = sum k c_k z^k, c the coefficients of g, by Horner
    recurrence on the row k c_k that ring_values transforms."""
    c = f.g_coeffs
    return npoly.polyval(z, np.arange(len(c)) * c)


def ring_values(f: LaurentFunction, grid: DiscGrid) -> tuple[np.ndarray, np.ndarray]:
    """g and z g' at every grid point, as flat arrays in grid.points order."""
    c = f.g_coeffs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        g, zgp = _transform((c, np.arange(len(c)) * c), grid)
    return g, zgp


def ring_transform(rows: Sequence[np.ndarray], grid: DiscGrid) -> np.ndarray:
    """Values at every grid point of the polynomials whose ascending
    coefficients are the rows, one row each in grid.points order.

    On the ring |z| = r with M equispaced angles, p(r e^{2 pi i j/M}) =
    sum_k c_k r^k e^{2 pi i jk/M} is one inverse DFT of length M, and the
    coefficients with k >= M fold onto index k mod M exactly (aliasing).
    The whole stack shares one transform per ring. The fold reads each row
    in place and adds its blocks of M coefficients times r^k into zeroed
    spectra, one ring at a time; on the unit circle it adds the block itself,
    with the bits of c * 1.0 for finite c (an add to +0.0 leaves no -0.0),
    and takes no powers. Stacks whose longest row has at most log2(M)
    coefficients take Horner's rule on grid.points instead: its cost grows
    with the length and the transform's does not, so it is the cheaper one
    on the shortest series. Either branch writes into the array it returns
    and into no other array of its size.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, NaN count as degenerate
        return _transform(rows, grid)


def _transform(rows, grid: DiscGrid) -> np.ndarray:
    """ring_transform without its errstate, for ring_values to share its own."""
    m = grid.angular_samples
    longest = max(map(len, rows))
    if longest <= math.log2(m):
        # npoly.polyval's recurrence c[-1] + x*0, then c_k + out*x, in place
        x = grid.points
        values = np.empty((len(rows), len(x)), dtype=complex)
        for out, row in zip(values, rows):
            np.multiply(x, 0, out=out)
            out += row[-1]
            for c in row[-2::-1]:
                out *= x
                out += c
        return values
    spectra = np.zeros((len(rows), len(grid.radii), m), dtype=complex)
    # one block of M coefficients at a time, on one ring at a time; rows are read in place
    for start in range(0, longest, m):
        for k, r in enumerate(grid.radii):
            powers = None if r == 1.0 else r ** np.arange(start, min(start + m, longest))
            for spectrum, row in zip(spectra, rows):
                block = row[start : start + m]
                spectrum[k, : len(block)] += block if powers is None else block * powers[: len(block)]
    np.fft.ifft(spectra, axis=-1, norm="forward", out=spectra)
    return spectra.reshape(len(rows), -1)


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
    n = scalar(n, "n", int, low=1)
    kept = list(f.coeffs[:n])
    if kept:
        kept[0] = 0j
    while kept and kept[-1] == 0:
        kept.pop()
    return LaurentFunction(tuple(kept))


@dataclass(frozen=True)
class DiscGrid:
    """Sampling grid: circles of the given radii, equispaced angles on each.

    Radii must lie strictly inside (0,1) and increase, and there must be at
    least 8 angles, an int or a numpy integer; scalars and scalar check them.
    The default schedule piles radii toward the boundary because the class
    conditions are open inequalities whose failures concentrate there.
    z = 0 never appears. DiscGrid.circle is the one grid on |z| = 1 itself,
    one shared instance per M; DiscGrid.default is one shared instance too.
    """

    radii: tuple[float, ...] = DEFAULT_RADII
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", scalars(self.radii, "radii", above=0, below=1))
        if not self.radii:
            raise ValueError("radii must hold at least one radius")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "angular_samples", scalar(self.angular_samples, "angular_samples", int, low=8))

    @classmethod
    @cache  # one shared instance, as circle has one per M: its points are computed once
    def default(cls) -> "DiscGrid":
        """The default grid, DEFAULT_RADII at DEFAULT_ANGULAR_SAMPLES angles;
        frozen, with read-only thetas and points, like every DiscGrid."""
        return cls()

    @classmethod
    def circle(cls, angular_samples: int = DEFAULT_ANGULAR_SAMPLES) -> "DiscGrid":
        """M equispaced points of the unit circle, where the margins of a
        truncated series take their minimum over the closed disc."""
        return cls._circle(scalar(angular_samples, "angular_samples", int, low=8))  # before the cache

    @classmethod
    @cache  # one instance per M: every grid with M angles shares its read-only angles and roots
    def _circle(cls, angular_samples: int) -> "DiscGrid":
        grid = cls((0.5,), angular_samples)  # validates angular_samples
        object.__setattr__(grid, "radii", (1.0,))
        try:
            thetas = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
            roots = np.exp(1j * thetas)
        except MemoryError:
            raise ValueError(f"angular_samples {angular_samples} is too large to allocate its angles") from None
        for shared in (thetas, roots):
            shared.setflags(write=False)
        vars(grid).update(thetas=thetas, points=roots)  # the cached properties, filled in
        return grid

    @classmethod
    def with_rmax(cls, rmax: float, angular_samples: int = DEFAULT_ANGULAR_SAMPLES) -> "DiscGrid":
        """Default radius schedule capped at rmax (rmax itself included)."""
        rmax = scalar(rmax, "rmax", above=0, below=1)
        radii = [r for r in DEFAULT_RADII if r < rmax]
        radii.append(rmax)
        return cls(tuple(radii), angular_samples)

    @cached_property
    def thetas(self) -> np.ndarray:
        return DiscGrid.circle(self.angular_samples).thetas

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as a flat read-only complex array, radius-major order."""
        roots = DiscGrid.circle(self.angular_samples).points
        points = (np.asarray(self.radii)[:, None] * roots).ravel()
        points.setflags(write=False)
        return points

    def __len__(self) -> int:
        return len(self.radii) * self.angular_samples


def random_support(
    rng: np.random.Generator, lowest: int, highest: int, max_active: int, extra: int = 0
):
    """Random coefficient support shared by the member samplers.

    Draws n in [1, max_active) distinct indices from lowest..highest, then
    Dirichlet(1, ..., 1) weights of length n + extra (extra weights lead),
    built as rng.dirichlet(np.ones(n + extra)) builds them, with its bits and
    generator state: unit gamma variates times 1/(their sequential sum).
    Returns (indices, weights).
    """
    n_active = int(rng.integers(1, max_active))
    indices = rng.choice(np.arange(lowest, highest + 1), size=n_active, replace=False)
    e = rng.standard_gamma(1.0, n_active + extra)
    return indices, e * (1.0 / np.add.accumulate(e)[-1])


def serialize_coeffs(f: LaurentFunction) -> dict:
    """JSON-ready form: {"coeffs": [[re, im], ...]}, index i -> a_i."""
    return {"coeffs": [[c.real, c.imag] for c in f.coeffs]}


def deserialize_coeffs(data: dict) -> LaurentFunction:
    """Inverse of serialize_coeffs. Unknown keys are ignored; the first entry
    that is not an [re, im] pair is named coeffs[i], and the first number that
    scalars refuses (JSON true/false included) coeffs[i][j]."""
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError('series JSON must be an object with a "coeffs" key')
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise ValueError('"coeffs" must be a list of [re, im] pairs')
    if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
        if set(map(type, chain.from_iterable(raw))) <= {int, float}:
            with suppress(ValueError, OverflowError):  # in C; the loop below names the bad entry
                return LaurentFunction(tuple(starmap(complex, raw)))
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"coeffs[{i}] is not an [re, im] pair: {entry!r}")
        out.append(complex(*scalars(entry, f"coeffs[{i}]")))
    return LaurentFunction(tuple(out))
