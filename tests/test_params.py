"""series.scalar, the one check of a scalar parameter, and the public entry
points that take a raw scalar: each refuses a bad value with a ValueError
that names the parameter, and takes Fractions and numpy scalars as the plain
float or int."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merostar.classes import ClassSpec, Family, coeff_bound
from merostar.convolution import KernelSpec, check_thm32, kernel, neighborhood_sample, phase_margins, stability_premise
from merostar.extremal import mf_not_me_witness, remark1_witness, theorem21_extremal, theorem23_extremal
from merostar.harness import run_suite
from merostar.reporting import VerificationReport
from merostar.series import DiscGrid, LaurentFunction, partial_sum, ring_values, scalar, scalars
from merostar.tme import distortion_bounds, sharp_function

POLE = LaurentFunction(())
F = LaurentFunction((0.1, 0.05, 0.02))
TINY = DiscGrid((0.5,), 8)
G, ZGP = ring_values(F, TINY)


@pytest.mark.parametrize(
    "value, kind, bounds, message",
    [
        ("0.5", float, {}, "x must be a number, not str: '0.5'"),
        (b"1", complex, {}, "x must be a number, not bytes: b'1'"),
        (True, float, {}, "x must be a number, not bool: True"),
        (np.True_, int, {}, "x must be an integer, not bool: np.True_"),
        (None, float, {}, "x must be a number, not NoneType: None"),
        (1j, float, {}, "x must be a number, not complex: 1j"),
        (2.0, int, {}, "x must be an integer, got 2.0"),
        (Fraction(3), int, {}, "x must be an integer, got Fraction(3, 1)"),
        (10**400, int, {}, "x is beyond float range"),
        (Fraction(10**400, 3), float, {}, "x is beyond float range"),
        (math.nan, float, {}, "x must be finite, got nan"),
        (complex(0, math.inf), complex, {}, "x must be finite, got infj"),
        (-1.0, float, {"low": 0}, "x must be finite and >= 0, got -1.0"),
        (1, float, {"low": 0, "below": 1}, "x must be finite, >= 0 and < 1, got 1.0"),
        (0, int, {"low": 1}, "x must be >= 1, got 0"),
        (0.5, float, {"above": 0.5, "high": 2}, "x must be finite, > 0.5 and <= 2, got 0.5"),
    ],
)
def test_scalar_names_what_it_refuses(value, kind, bounds, message):
    with pytest.raises(ValueError) as err:
        scalar(value, "x", kind, **bounds)
    assert str(err.value) == message


def test_scalar_converts_to_the_plain_kind():
    assert type(scalar(np.float32(0.5), "x")) is float and scalar(np.float32(0.5), "x") == 0.5
    assert type(scalar(Fraction(1, 4), "x")) is float
    assert type(scalar(np.uint8(7), "x", int)) is int
    assert type(scalar(3, "x")) is float and type(scalar(np.float64(1.5), "x", complex)) is complex
    assert scalar(1.0, "x", low=1, high=1) == 1.0


def test_scalars_check_a_whole_sequence_and_name_the_bad_entry():
    assert scalars([0.5, np.float64(0.25), Fraction(1, 8)], "r", low=0) == (0.5, 0.25, 0.125)
    assert scalars(np.array([1, 2]), "c", complex) == (1 + 0j, 2 + 0j)
    for values, message in [
        ("12", "r must be a sequence of numbers, not str"),
        (iter([0.5]), "r must be a sequence of numbers, not list_iterator"),
        ([0.5, True], "r[1] must be a number, not bool: True"),
        ((0.5, -0.0, -1e-300), "r[2] must be finite and >= 0, got -1e-300"),
        ([0.5, 10**400], "r[1] is beyond float range"),
    ]:
        with pytest.raises(ValueError) as err:
            scalars(values, "r", low=0)
        assert str(err.value) == message


def _suite(suite, key, **others):
    """run_suite with key set; it reads None as a parameter not given."""
    call = lambda v: run_suite(suite, {**others, key: v})
    call.takes_none = True
    return call


# name, entry point of one parameter, kind, a valid value, values out of range
ENTRY_POINTS = [
    ("alpha", lambda v: ClassSpec(Family.ME, v), float, 0.5, [-0.5]),
    ("alpha", lambda v: ClassSpec(Family.STARLIKE, v), float, 0.5, [-0.5, 1, 1.5]),
    ("gamma", lambda v: KernelSpec(1.0, v), float, 0.5, []),
    ("radii[0]", lambda v: DiscGrid((v,), 8), float, 0.5, [0, 1, -0.5, 1.5]),
    ("angular_samples", lambda v: DiscGrid((0.5,), v), int, 8, [7, 0, -8]),
    ("angular_samples", DiscGrid.circle, int, 16, [4]),
    ("rmax", lambda v: DiscGrid.with_rmax(v, 8), float, 0.5, [0, 1]),
    ("n", _suite("rem1", "n"), int, 3, [0]),
    ("count", _suite("rem2", "count"), int, 1, [0]),
    ("seed", _suite("rem2", "seed", count=1), int, 3, [-1]),
    ("gamma_samples", _suite("thm3.1", "gamma_samples", count=1), int, 8, [3]),
    ("alpha", _suite("rem1", "alpha"), float, 0.25, [-0.5, 0, 1]),
    ("eps", _suite("thm3.2", "eps", count=1), float, 0.5, [0, 1, 0.25]),
    ("delta", _suite("thm3.2", "delta", count=1), float, 0.25, [0, 0.4]),
    ("n", lambda v: partial_sum(F, v), int, 2, [0]),
    ("alpha", lambda v: coeff_bound(v, 1), float, 0.5, [-1]),
    ("n", lambda v: coeff_bound(1.0, v), int, 2, [-1]),
    ("degree", lambda v: kernel(KernelSpec(1.0, 0.5), v), int, 3, [-1]),
    ("delta", lambda v: neighborhood_sample(F, v, 3, 0), float, 0.25, [-0.1]),
    ("count", lambda v: neighborhood_sample(F, 0.25, v, 0), int, 3, [0]),
    ("seed", lambda v: neighborhood_sample(F, 0.25, 3, v), int, 1, [-1]),
    ("eps", lambda v: stability_premise(POLE, 1.0, v, TINY), float, 0.5, [0, 1]),
    ("eps", lambda v: check_thm32(POLE, 1.0, v, 0.25, 2, TINY, 0), float, 0.5, [0.25, 1]),
    ("delta", lambda v: check_thm32(POLE, 1.0, 0.5, v, 2, TINY, 0), float, 0.25, [0, 0.4]),
    ("count", lambda v: check_thm32(F, 1.0, 0.99, 0.25, v, TINY, 0), int, 2, [0]),
    ("seed", lambda v: check_thm32(POLE, 1.0, 0.5, 0.25, 2, TINY, v), int, 0, [-1]),
    ("alpha", lambda v: distortion_bounds(v, 0.5), float, 1.5, [-1]),
    ("r", lambda v: distortion_bounds(1.0, v), float, 0.5, [0, 1]),
    ("alpha", lambda v: phase_margins(G, ZGP, v, 8), float, 1.5, [-1]),
    ("gamma_samples", lambda v: phase_margins(G, ZGP, 1.0, v), int, 8, [3]),
    ("alpha", lambda v: sharp_function(v, 2), float, 1.5, [-1]),
    ("n", lambda v: sharp_function(1.0, v), int, 2, [0]),
    ("alpha", theorem21_extremal, float, 1.5, [0.5]),
    ("degree", lambda v: theorem21_extremal(2.0, v), int, 3, [0]),
    ("alpha", lambda v: theorem23_extremal(v, 2, 8), float, 1.5, [-1]),
    ("n", lambda v: theorem23_extremal(1.0, v, 8), int, 2, [0]),
    ("degree", lambda v: theorem23_extremal(1.0, 2, v), int, 4, [0]),
    ("n", remark1_witness, int, 3, [0]),
    ("degree", mf_not_me_witness, int, 12, [9]),
]
IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(ENTRY_POINTS)]

not_a_number = st.one_of(
    st.text(max_size=3),
    st.binary(max_size=2),
    st.booleans(),
    st.just(np.True_),
    st.none(),
    st.complex_numbers(),
    st.builds(np.complex128, st.complex_numbers()),
)
not_finite = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), Fraction(10**400)])
not_an_integer = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # 2.0 included
    st.builds(Fraction, st.integers(), st.integers(2, 9)),
    st.builds(np.float64, st.integers(-9, 9)),
)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_every_entry_point_refuses_a_bad_scalar_by_name(data):
    name, call, kind, _, out_of_range = data.draw(st.sampled_from(ENTRY_POINTS))
    bad = [not_a_number, not_finite, st.sampled_from(out_of_range or [math.nan])]
    value = data.draw(st.one_of(*bad, not_an_integer) if kind is int else st.one_of(*bad))
    if value is None and getattr(call, "takes_none", False):
        return
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name} "), str(err.value)


def _result(value):
    """A comparable form of what an entry point returned."""
    if isinstance(value, VerificationReport):
        return json.dumps({**value.to_dict(), "runtime_ms": 0}, sort_keys=True)
    if isinstance(value, tuple) and isinstance(value[0], np.ndarray):
        return [a.tobytes() for a in value]
    return value


@pytest.mark.parametrize("name, call, kind, valid, _", ENTRY_POINTS, ids=IDS)
def test_fractions_and_numpy_scalars_give_the_plain_result(name, call, kind, valid, _):
    plain = _result(call(valid))
    alike = [np.int64(valid), np.int32(valid)] if kind is int else [Fraction(valid), np.float64(valid), np.float32(valid)]
    for value in alike:
        assert _result(call(value)) == plain, value
