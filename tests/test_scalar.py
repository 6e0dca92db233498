import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoseries.scalar import (
    ScalarSeries,
    coefficient_bound,
    lemma_constants,
    scalar_closed_form,
    scalar_coefficients,
    scalar_explicit_rn,
)

small_float = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


def test_series_starts_at_one():
    with pytest.raises(ValueError):
        ScalarSeries((2.0, 1.0))
    with pytest.raises(ValueError):
        scalar_coefficients((), 3)
    with pytest.raises(ValueError):
        scalar_coefficients((1.0,), 0)


def test_recursion_first_orders():
    s = scalar_coefficients((2.0, 3.0), 3)
    # r_1 = a0, r_2 = (a0^2 + a1)/2, r_3 = (a0 r_2 + a1 r_1)/3
    assert s.coeffs[1] == 2.0
    assert s.coeffs[2] == (4.0 + 3.0) / 2
    assert s.coeffs[3] == (2.0 * 3.5 + 3.0 * 2.0) / 3


def test_autonomous_coefficients_are_exponential():
    s = scalar_coefficients((1.5,), 12)
    for n in range(13):
        assert s.coeffs[n] == pytest.approx(1.5**n / math.factorial(n), rel=1e-14)


def test_explicit_rn_golden():
    # a = (2, 3), n = 4: 2^4/24 + 4*3/4 + 9/8
    assert scalar_explicit_rn(2.0, 3.0, 4) == pytest.approx(
        16 / 24 + 3.0 + 9 / 8, rel=1e-15
    )
    assert scalar_explicit_rn(1.0, 1.0, 7) == pytest.approx(
        1 / 5040 + 1 / 240 + 1 / 48 + 1 / 48, rel=1e-14
    )
    assert scalar_explicit_rn(3.0, 0.0, 2) == pytest.approx(4.5, rel=1e-15)


@given(small_float, small_float, st.integers(1, 20))
@settings(max_examples=120)
def test_explicit_matches_recursion(a0, a1, n):
    series = scalar_coefficients((a0, a1), n)
    explicit = scalar_explicit_rn(a0, a1, n)
    scale = max(1.0, abs(series.coeffs[n]))
    assert abs(series.coeffs[n] - explicit) <= 1e-12 * scale


def test_closed_form_values():
    assert scalar_closed_form((1.0, 1.0), 0.0) == 1.0
    t = 0.7
    assert scalar_closed_form((1.0, 1.0), t) == pytest.approx(
        math.exp(t + t * t / 2), rel=1e-15
    )
    assert scalar_closed_form((0.5, 0.0, 3.0), t) == pytest.approx(
        math.exp(0.5 * t + t**3), rel=1e-15
    )


def test_closed_form_overflow_is_flagged_inf():
    with pytest.warns(RuntimeWarning):
        assert scalar_closed_form((1000.0,), 10.0) == math.inf


def test_closed_form_overflowing_power_is_flagged_inf():
    # t^2 alone leaves the float range; the value is inf with the warning,
    # and a zero coefficient or a negative exponent still gives its limit.
    with pytest.warns(RuntimeWarning):
        assert scalar_closed_form((1.0, 1.0), 1e300) == math.inf
    with pytest.warns(RuntimeWarning):
        assert scalar_closed_form((1.0, 0.0), 1e300) == math.inf
    assert scalar_closed_form((-1.0, -1.0), 1e300) == 0.0
    # t^2 / 2 gives +inf and t^3 / 3 gives -inf; the cubic dominates, so 0
    assert scalar_closed_form((0.0, 1.0, 1.0), -1e200) == 0.0
    # here the quadratic term is the larger one, and it is positive
    with pytest.warns(RuntimeWarning):
        assert scalar_closed_form((0.0, 1e300, -1e-300), 1e200) == math.inf


def test_series_converges_to_closed_form():
    s = scalar_coefficients((1.0, 1.0), 30)
    t = 0.5
    assert s.partial_sum(t) == pytest.approx(math.exp(t + t * t / 2), abs=1e-12)


def test_coefficient_bound_values():
    assert coefficient_bound(2.0, 1.5, 1) == 1.5
    assert coefficient_bound(2.0, 1.0, 6) == 8 / 6
    with pytest.raises(ValueError):
        coefficient_bound(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        coefficient_bound(1.0, 0.0, 3)


def test_lemma_constants_unit_case():
    c, d = lemma_constants(1.0, 1.0)
    assert c == 1.0
    s = scalar_coefficients((1.0, 1.0), 40)
    for n in range(1, 41):
        assert abs(s.coeffs[n]) <= coefficient_bound(c, d, n) * (1 + 1e-12)


@given(small_float, small_float)
@settings(max_examples=80)
def test_factorial_envelope_holds(a0, a1):
    c, d = lemma_constants(a0, a1)
    if c == 0.0:
        return
    s = scalar_coefficients((a0, a1), 40)
    for n in range(1, 41):
        assert abs(s.coeffs[n]) <= coefficient_bound(c, d, n) * (1 + 1e-9)


@given(
    st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=1, max_size=4),
    st.floats(0.0, 2.0, allow_nan=False),
    st.integers(1, 25),
)
@settings(max_examples=60)
def test_nonnegative_family_partial_sum_below_closed_form(a, t, order):
    # The engine's certificate rests on this: for a_j >= 0 every r_n >= 0, so
    # each partial sum is below exp(integral of a), for every t >= 0.
    s = scalar_coefficients(a, order)
    assert all(c >= 0 for c in s.coeffs)
    assert s.partial_sum(t) <= scalar_closed_form(a, t) * (1 + 1e-12)


def double_bits(x) -> bytes:
    """The bits of a double, with every NaN alike (its sign and payload are not specified)."""
    return b"nan" if math.isnan(x) else np.float64(x).tobytes()


any_magnitude = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-4, 4)


@given(
    st.integers(1, 4).flatmap(
        lambda p: st.lists(st.lists(any_magnitude, min_size=p, max_size=p), min_size=1, max_size=6)
    ),
    st.lists(st.floats(-1e3, 1e3) | st.floats(0.0, 1e-300), min_size=6, max_size=6),
    st.integers(1, 25),
)
@settings(max_examples=100)
def test_array_coefficients_match_float_calls_bit_for_bit(rows, ts, order):
    # The engine's stacked bound runs the recursion and Horner on a (p+1, S)
    # array of coefficients and S times; each column must be its float call.
    ts = ts[: len(rows)]
    with np.errstate(over="ignore", invalid="ignore"):  # floats overflow without a warning
        stacked = scalar_coefficients(np.array(rows).T, order)
        values = stacked.partial_sum(np.array(ts))
    for s, (a, t) in enumerate(zip(rows, ts)):
        single = scalar_coefficients(a, order)
        assert [double_bits(c) for c in single.coeffs] == [
            double_bits(np.broadcast_to(c, len(rows))[s]) for c in stacked.coeffs
        ]
        assert double_bits(single.partial_sum(t)) == double_bits(values[s])
