"""Hypothesis strategies for hostile series: values that are not finite,
that sit near the top of float range or beyond it, bools in place of
numbers, and degrees up to 10^5 with only a few nonzero entries."""

from __future__ import annotations

from hypothesis import strategies as st

FLOAT_MAX = 1.7976931348623157e308
MAX_DEGREE = 10**5

# one JSON number, or what a careless writer puts in its place
number = st.one_of(
    st.floats(),  # NaN, infinities and subnormals included
    st.floats(min_value=1e300, max_value=FLOAT_MAX),
    st.sampled_from([1e308, -1e308, FLOAT_MAX, -FLOAT_MAX, 10**400, -(10**400)]),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
)
pair = st.lists(number, min_size=2, max_size=2)


@st.composite
def sparse(draw, value, zero):
    """A list of degree + 1 entries, zero except at up to five drawn indices."""
    degree = draw(st.integers(0, MAX_DEGREE))
    entries = draw(st.dictionaries(st.integers(0, degree), value, max_size=5))
    out = [zero] * (degree + 1)
    for i, v in entries.items():
        out[i] = v
    return out


coeffs = sparse(number, 0.0)
series_file = st.builds(lambda c: {"coeffs": c}, sparse(pair, [0.0, 0.0]))
tme_file = st.one_of(series_file, st.builds(lambda m: {"magnitudes": m}, sparse(number, 0.0)))
