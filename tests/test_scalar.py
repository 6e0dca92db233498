import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoseries.combinatorics import TermBudgetError
from evoseries.engine import _horner
from evoseries.scalar import MAX_SERIES_PRODUCTS, scalar_closed_form, scalar_coefficients

small_float = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


# Oracles from the paper for linear a(t) = a0 + a1 t.  They run no recursion,
# so they check scalar_coefficients from outside.


def scalar_explicit_rn(a0: float, a1: float, n: int) -> float:
    """r_n for linear a(t) = a0 + a1 t, without running the recursion.

    r_n = sum over q of a0^(n-2q) a1^q / ((n-2q)! q! 2^q); the q-th term
    collects every product with q picks of a1, whose weights sum to exactly
    1 / ((n-2q)! q! 2^q).
    """
    total = 0.0
    for q in range(n // 2 + 1):
        total += a0 ** (n - 2 * q) * a1**q / (
            math.factorial(n - 2 * q) * math.factorial(q) * 2**q
        )
    return total


def coefficient_bound(c: float, d: float, n: int) -> float:
    """The factorial envelope d * c^floor(n/2) / floor(n/2)!."""
    half = n // 2
    return d * c**half / math.factorial(half)


def lemma_constants(a0: float, a1: float) -> tuple[float, float]:
    """Constants (c, d) with |r_n| <= d c^floor(n/2) / floor(n/2)! for all n.

    c = max(|a0|, |a1|).  The inductive step of the bound is self-sustaining
    once n/2 > c, so d only has to absorb a finite window of small orders:
    the max of |r_n| floor(n/2)! / c^floor(n/2) over n <= 2m, where m is the
    smallest integer with m + 1/2 > c, floored at 1.  The r_n of the window
    come from scalar_explicit_rn.
    """
    c = max(abs(a0), abs(a1))
    if c == 0.0:
        return 0.0, 1.0
    m = max(1, math.floor(c - 0.5) + 1)
    d = 1.0
    for n in range(1, 2 * m + 1):
        half = n // 2
        d = max(d, abs(scalar_explicit_rn(a0, a1, n)) * math.factorial(half) / c**half)
    return c, d


def python_series(a, order: int) -> list[float]:
    """The recursion n r_n = sum_j a_j r_{n-1-j} and nothing else, on Python floats."""
    r = [1.0]
    for n in range(1, order + 1):
        acc = 0.0
        for j in range(min(len(a), n)):
            acc += a[j] * r[n - 1 - j]
        r.append(acc / n)
    return r


def test_series_starts_at_one():
    assert scalar_coefficients((2.0, 1.0), 3)[0] == 1.0
    with pytest.raises(ValueError):
        scalar_coefficients((), 3)
    with pytest.raises(ValueError):
        scalar_coefficients((1.0,), 0)


def test_series_counts_its_multiply_adds_before_any():
    # Order n sums min(len(a), n) products: a list longer than the order
    # costs no more than one of order coefficients.
    assert len(scalar_coefficients([1.0] * 5000, 200)) == 201
    with pytest.raises(TermBudgetError) as refused:
        scalar_coefficients((1.0, 0.5), MAX_SERIES_PRODUCTS // 2 + 1)
    assert (refused.value.count, refused.value.cap) == (MAX_SERIES_PRODUCTS + 2, MAX_SERIES_PRODUCTS)
    assert str(refused.value) == (
        f"series order {MAX_SERIES_PRODUCTS // 2 + 1} needs {MAX_SERIES_PRODUCTS + 2} products,"
        f" over the cap of {MAX_SERIES_PRODUCTS}"
    )


def test_recursion_first_orders():
    s = scalar_coefficients((2.0, 3.0), 3)
    # r_1 = a0, r_2 = (a0^2 + a1)/2, r_3 = (a0 r_2 + a1 r_1)/3
    assert s[1] == 2.0
    assert s[2] == (4.0 + 3.0) / 2
    assert s[3] == (2.0 * 3.5 + 3.0 * 2.0) / 3


def test_autonomous_coefficients_are_exponential():
    s = scalar_coefficients((1.5,), 12)
    for n in range(13):
        assert s[n] == pytest.approx(1.5**n / math.factorial(n), rel=1e-14)


def test_explicit_rn_golden():
    # the oracle itself, against hand-summed values
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
    scale = max(1.0, abs(series[n]))
    assert abs(series[n] - explicit) <= 1e-12 * scale


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
    assert _horner(s, t) == pytest.approx(math.exp(t + t * t / 2), abs=1e-12)


def test_coefficient_bound_values():
    assert coefficient_bound(2.0, 1.5, 1) == 1.5
    assert coefficient_bound(2.0, 1.0, 6) == 8 / 6


def test_lemma_constants_unit_case():
    c, d = lemma_constants(1.0, 1.0)
    assert c == 1.0
    s = scalar_coefficients((1.0, 1.0), 40)
    for n in range(1, 41):
        assert abs(s[n]) <= coefficient_bound(c, d, n) * (1 + 1e-12)


@given(small_float, small_float)
@settings(max_examples=80)
def test_factorial_envelope_holds(a0, a1):
    c, d = lemma_constants(a0, a1)
    if c == 0.0:
        return
    s = scalar_coefficients((a0, a1), 40)
    for n in range(1, 41):
        assert abs(s[n]) <= coefficient_bound(c, d, n) * (1 + 1e-9)


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
    assert (s >= 0).all()
    assert _horner(s, t) <= scalar_closed_form(a, t) * (1 + 1e-12)


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
    # array of coefficients and S times; each column must be its float call,
    # and that call the recursion and Horner's rule on Python floats, which
    # overflow without a warning.
    ts = ts[: len(rows)]
    stacked = scalar_coefficients(np.array(rows).T, order)
    values = _horner(stacked, np.array(ts))
    for s, (a, t) in enumerate(zip(rows, ts)):
        single = scalar_coefficients(a, order)
        reference = python_series(a, order)
        assert [double_bits(c) for c in single] == [double_bits(c) for c in reference]
        assert [double_bits(c) for c in single] == [double_bits(c) for c in stacked[:, s]]
        horner = 0.0
        for c in reversed(reference):
            horner = horner * t + c
        assert double_bits(_horner(single, t)) == double_bits(horner)
        assert double_bits(_horner(single, t)) == double_bits(values[s])
