import ast
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evoseries import combinatorics, engine
from evoseries.combinatorics import (
    EXPLICIT_TERM_BUDGET,
    TermBudgetError,
    _bounded_count,
    _compositions,
    _refuse,
    enumerate_index_set,
    enumerate_restricted_index_set,
    max_total_index,
    multinomial_pi_sum,
    pi_coefficient,
    pi_sum,
    term_count,
)


def compositions_reference(total, length, cap):
    # The recursive generator the successor replaced, one nested generator a position.
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total) + 1):
        rest = total - first
        if rest > cap * (length - 1):
            continue
        for tail in compositions_reference(rest, length - 1, cap):
            yield (first,) + tail


def pi_reference(m):
    # One Fraction a tuple: the reciprocal of the nested suffix-sum product.
    denominator = 1
    suffix = 0
    for offset, entry in enumerate(reversed(m), start=1):
        suffix += entry
        denominator *= suffix + offset
    return Fraction(1, denominator)


def pi_sum_reference(n, q, p):
    total = Fraction(0)
    for m in compositions_reference(q, n - q, p):
        total += pi_reference(m)
    return total


def multinomial_pi_sum_reference(n, q, p):
    total = Fraction(0)
    for k in compositions_reference(n - q, p + 1, n - q):
        if sum(j * kj for j, kj in enumerate(k, start=1)) != n:
            continue
        denominator = 1
        for j, kj in enumerate(k, start=1):
            denominator *= math.factorial(kj) * j**kj
        total += Fraction(1, denominator)
    return total


# Frozen weight table for the (7, 2, 1) index set, enumeration order.
PI_TABLE = [
    ((0, 0, 0, 1, 1), Fraction(1, 1680)),
    ((0, 0, 1, 0, 1), Fraction(1, 1260)),
    ((0, 0, 1, 1, 0), Fraction(1, 630)),
    ((0, 1, 0, 0, 1), Fraction(1, 1008)),
    ((0, 1, 0, 1, 0), Fraction(1, 504)),
    ((0, 1, 1, 0, 0), Fraction(1, 336)),
    ((1, 0, 0, 0, 1), Fraction(1, 840)),
    ((1, 0, 0, 1, 0), Fraction(1, 420)),
    ((1, 0, 1, 0, 0), Fraction(1, 280)),
    ((1, 1, 0, 0, 0), Fraction(1, 210)),
]


def test_enumerate_small_sets():
    assert list(enumerate_index_set(1, 0)) == [(0,)]
    assert list(enumerate_index_set(4, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert list(enumerate_index_set(4, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(enumerate_index_set(4, 3)) == [(3,)]


def test_enumerate_restricted_small_sets():
    assert list(enumerate_restricted_index_set(7, 2, 1)) == [m for m, _ in PI_TABLE]
    assert list(enumerate_restricted_index_set(4, 2, 1)) == [(1, 1)]
    assert list(enumerate_restricted_index_set(2, 0, 3)) == [(0, 0)]


def test_enumeration_is_lazy():
    it = enumerate_index_set(40, 15)
    assert not isinstance(it, (list, tuple))
    assert next(iter(it)) == (0,) * 24 + (15,)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        list(enumerate_index_set(0, 0))
    with pytest.raises(ValueError):
        list(enumerate_index_set(3, 3))
    with pytest.raises(ValueError):
        list(enumerate_index_set(3, -1))
    with pytest.raises(ValueError):
        list(enumerate_restricted_index_set(7, 4, 1))  # cutoff is 3
    with pytest.raises(ValueError):
        list(enumerate_restricted_index_set(7, 2, 0))


def test_both_weight_set_checks_refuse_past_the_cutoff_in_one_message():
    with pytest.raises(ValueError) as enumerated:
        list(enumerate_restricted_index_set(7, 4, 1))
    with pytest.raises(ValueError) as counted:
        multinomial_pi_sum(7, 4, 1)
    assert str(counted.value) == str(enumerated.value)
    assert str(enumerated.value) == "total index q=4 exceeds the degree-1 cutoff 3 at order n=7"


def test_max_total_index():
    assert max_total_index(7, 1) == 3
    assert max_total_index(12, 3) == 9
    assert max_total_index(1, 5) == 0


@given(st.integers(1, 10), st.integers(0, 9))
@settings(max_examples=60)
def test_index_set_structure(n, q):
    q = min(q, n - 1)
    seen = list(enumerate_index_set(n, q))
    assert seen == sorted(set(seen))
    for m in seen:
        assert len(m) == n - q
        assert sum(m) == q
        assert all(e >= 0 for e in m)


@given(st.integers(2, 10), st.integers(0, 9), st.integers(1, 3))
@settings(max_examples=60)
def test_restricted_is_entry_capped_subset(n, q, p):
    q = min(q, max_total_index(n, p))
    full = list(enumerate_index_set(n, q))
    restricted = list(enumerate_restricted_index_set(n, q, p))
    assert restricted == [m for m in full if max(m) <= p]


def test_pi_table_exact():
    for m, value in PI_TABLE:
        assert pi_coefficient(m) == value


def test_pi_small_values():
    assert pi_coefficient((0,)) == 1
    assert pi_coefficient((1, 1)) == Fraction(1, 8)
    assert pi_coefficient((0, 2)) == Fraction(1, 12)
    assert pi_coefficient((2, 0)) == Fraction(1, 4)


def test_pi_errors():
    with pytest.raises(ValueError):
        pi_coefficient(())
    with pytest.raises(ValueError):
        pi_coefficient((1, -1))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
@settings(max_examples=100)
def test_pi_in_unit_interval(entries):
    m = tuple(entries)
    value = pi_coefficient(m)
    assert 0 < value <= 1
    # leading factor of the product is always n = sum + len
    assert value.denominator % (sum(m) + len(m)) == 0


def test_pi_zero_tuple_is_inverse_factorial():
    for n in range(1, 10):
        assert pi_coefficient((0,) * n) == Fraction(1, math.factorial(n))


def test_pi_sum_golden():
    assert pi_sum(7, 2, 1) == Fraction(1, 48)
    assert pi_sum(4, 2, 1) == Fraction(1, 8)
    for n in range(1, 8):
        for p in (1, 2, 3):
            assert pi_sum(n, 0, p) == Fraction(1, math.factorial(n))


def test_pi_sum_closed_form_linear_family():
    # p = 1: the weights over (n, q) sum to 1 / ((n-2q)! q! 2^q)
    for n in range(1, 15):
        for q in range(n // 2 + 1):
            expected = Fraction(
                1, math.factorial(n - 2 * q) * math.factorial(q) * 2**q
            )
            assert pi_sum(n, q, 1) == expected


def test_multinomial_golden():
    assert multinomial_pi_sum(7, 2, 1) == Fraction(1, 48)
    assert multinomial_pi_sum(4, 2, 2) == pi_sum(4, 2, 2) == Fraction(11, 24)
    for n in range(1, 8):
        for p in (1, 2, 3):
            assert multinomial_pi_sum(n, 0, p) == Fraction(1, math.factorial(n))


@given(st.integers(1, 10), st.integers(0, 9), st.integers(1, 3))
@settings(max_examples=80)
def test_pi_sum_matches_multinomial(n, q, p):
    q = min(q, max_total_index(n, p))
    assert pi_sum(n, q, p) == multinomial_pi_sum(n, q, p)


@given(st.integers(-2, 42), st.integers(0, 10), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_compositions_match_the_recursive_reference(total, length, cap):
    # The 3% of sets above 20 000 tuples would take the reference seconds each.
    assume(length < 6 or _bounded_count(length, total, cap) <= 20_000)
    assert list(_compositions(total, length, cap)) == list(
        compositions_reference(total, length, cap)
    )


@given(st.integers(1, 14), st.integers(0, 13), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_weight_sums_match_the_per_tuple_fraction_references(n, q, p):
    q = min(q, max_total_index(n, p))
    assert pi_sum(n, q, p) == pi_sum_reference(n, q, p)
    assert multinomial_pi_sum(n, q, p) == multinomial_pi_sum_reference(n, q, p)


def test_weight_sums_match_the_references_at_every_q_of_order_14():
    for p in (1, 2, 3):
        for q in range(max_total_index(14, p) + 1):
            expected = pi_sum_reference(14, q, p)
            assert pi_sum(14, q, p) == expected
            assert multinomial_pi_sum(14, q, p) == expected


def test_multinomial_sum_matches_the_uncapped_enumeration_when_p_exceeds_q():
    # sum_j (j - 1) k_j = q leaves only the first q + 1 exponent counts
    # nonzero, so multinomial_pi_sum enumerates min(p, q) + 1 of them; the
    # reference still enumerates all p + 1.
    for n in range(1, 11):
        for p in range(2, 7):
            for q in range(min(p, max_total_index(n, p) + 1)):
                assert multinomial_pi_sum(n, q, p) == multinomial_pi_sum_reference(n, q, p)


def test_weight_sums_call_neither_each_other_nor_pi_coefficient(monkeypatch):
    own_pi_sum, own_multinomial = pi_sum, multinomial_pi_sum

    def refuse(*args, **kwargs):
        raise AssertionError("a weight sum called another oracle")

    for name in ("pi_coefficient", "pi_sum", "multinomial_pi_sum"):
        monkeypatch.setattr(combinatorics, name, refuse)
    assert own_pi_sum(7, 2, 1) == own_multinomial(7, 2, 1) == Fraction(1, 48)
    assert own_pi_sum(12, 5, 2) == own_multinomial(12, 5, 2)


def test_pi_sum_refuses_a_set_over_the_budget_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a set over the budget")
        yield

    monkeypatch.setattr(combinatorics, "_compositions", refuse)
    # The budget counts the recursion's multiply-adds, not the one tuple:
    # 8 004 000 of them, each on integers of up to 4000 * 12 / 64 = 750 words.
    start = time.perf_counter()
    with pytest.raises(TermBudgetError) as err:
        pi_sum(4000, 2000, 1)
    assert time.perf_counter() - start < 0.1
    assert err.value.count == 8_004_000 * 750 and err.value.cap == EXPLICIT_TERM_BUDGET
    assert str(err.value) == (
        "pi_sum(4000, 2000, 1) needs 6003000000 word multiply-adds, over the cap of 1000000"
    )


@pytest.mark.parametrize(
    "n, q, p, words", [(250_000, 1, 1, 70_313), (1400, 700, 1, 241)]
)
def test_pi_sum_weighs_its_multiply_adds_by_the_words_of_its_integers(n, q, p, words):
    # Under a million multiply-adds each, but with integers of up to n!, which
    # took 0.8 s and 0.25 s: refused at once, from a bound that forms none.
    start = time.perf_counter()
    with pytest.raises(TermBudgetError) as err:
        pi_sum(n, q, p)
    assert time.perf_counter() - start < 0.1
    multiply_adds = (n - q) * (q + 1) * (min(p, q) + 1)
    assert multiply_adds <= EXPLICIT_TERM_BUDGET
    assert err.value.count == multiply_adds * words
    assert words * 64 >= math.lgamma(n + 1) / math.log(2)  # log2(n!)


def test_the_weight_sums_of_an_order_add_up_to_one():
    # pi_sum's word count rests on this: its integers f_k(s) are (s + k)! times
    # a weight sum of order s + k, so none exceeds n!.  The weights of order n
    # sum to the coefficient of t^n in exp(-log(1 - t)) = 1 / (1 - t).
    for n in range(1, 30):
        assert sum(pi_sum(n, q, n) for q in range(n)) == 1


def test_pi_sum_is_a_recursion_not_a_visit_to_every_tuple(monkeypatch):
    # The (34, 12, 1) set has 646 646 tuples; none is enumerated or weighted.
    def refuse(*args, **kwargs):
        raise AssertionError("pi_sum enumerated or weighted a tuple")

    monkeypatch.setattr(combinatorics, "_compositions", refuse)
    monkeypatch.setattr(combinatorics, "pi_coefficient", refuse)
    start = time.perf_counter()
    value = pi_sum(34, 12, 1)
    assert time.perf_counter() - start < 0.1
    assert value == Fraction(1, 7119671320903680000)


def test_multinomial_sum_refuses_too_many_exponent_vectors_before_enumerating(monkeypatch):
    # Its vectors are the partitions of q into parts of at most min(p, q), with
    # at most n - q parts: at (60, 30, 30) the 5604 partitions of 30, computed.
    assert multinomial_pi_sum(60, 30, 30) == pi_sum(60, 30, 30)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated exponent vectors over the budget")

    monkeypatch.setattr(combinatorics, "_partitions", refuse)
    monkeypatch.setattr(combinatorics, "_compositions", refuse)
    # The 4 087 968 partitions of 70, refused from their count.
    start = time.perf_counter()
    with pytest.raises(TermBudgetError) as err:
        multinomial_pi_sum(200, 70, 70)
    assert time.perf_counter() - start < 0.1
    assert err.value.count == 4_087_968 and err.value.cap == EXPLICIT_TERM_BUDGET
    assert str(err.value) == (
        "multinomial_pi_sum(200, 70, 70) needs 4087968 exponent vectors, "
        "over the cap of 1000000"
    )


def test_multinomial_sum_refuses_a_count_over_the_budget_before_counting(monkeypatch):
    # 10^5 + 1 coefficients of 10^5 Gaussian-binomial factors would take
    # minutes to count; the count's own additions are refused first.
    def refuse(*args, **kwargs):
        raise AssertionError("counted exponent vectors over the budget")

    monkeypatch.setattr(combinatorics, "_partition_count", refuse)
    monkeypatch.setattr(combinatorics, "_partitions", refuse)
    start = time.perf_counter()
    with pytest.raises(TermBudgetError) as err:
        multinomial_pi_sum(200_000, 100_000, 100_000)
    assert time.perf_counter() - start < 0.1
    assert err.value.count == 100_001 * 100_000
    assert "10000100000 integer additions to count its exponent vectors" in str(err.value)


def test_multinomial_sum_weighs_its_integer_work_by_the_words_of_n_factorial(monkeypatch):
    # One exponent vector, counted in 2 additions, but n! spans 70 313 words:
    # the call took 1.34 s, 0.64 s of it forming n!.  Refused before n! is formed.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated exponent vectors over the budget")

    monkeypatch.setattr(combinatorics, "_partitions", refuse)
    start = time.perf_counter()
    with pytest.raises(TermBudgetError) as err:
        multinomial_pi_sum(250_000, 1, 1)
    assert time.perf_counter() - start < 0.1
    assert err.value.count == (250_000 + 1) * 70_313
    assert str(err.value) == (
        "multinomial_pi_sum(250000, 1, 1) needs 17578320313 word operations, "
        "over the cap of 1000000"
    )


def test_multinomial_sum_admits_every_size_the_composition_count_admitted():
    # One partition of 1000 has at most one part: the single 1001-cycle.  The
    # compositions of n - q = 1 into 1001 counts numbered only 1001.
    assert multinomial_pi_sum(1001, 1000, 1000) == Fraction(1, 1001)


def test_partitions_match_a_brute_force_filter_and_their_count():
    for total in range(13):
        for largest in range(7):
            for parts in range(8):
                ranges = [range(total // (largest - i) + 1) for i in range(largest)]
                brute = [
                    c
                    for c in itertools.product(*ranges)
                    if sum((largest - i) * x for i, x in enumerate(c)) == total and sum(c) <= parts
                ]
                assert list(combinatorics._partitions(total, largest, parts)) == brute
                assert combinatorics._partition_count(total, largest, parts) == len(brute)


def test_weight_sums_match_the_cycle_type_reference_at_every_q_to_order_18():
    for n in range(1, 19):
        for p in range(1, 6):
            for q in range(max_total_index(n, p) + 1):
                expected = multinomial_pi_sum_reference(n, q, p)
                assert pi_sum(n, q, p) == expected, (n, q, p)
                assert multinomial_pi_sum(n, q, p) == expected, (n, q, p)


def test_engine_reexports_the_one_budget():
    assert engine.TermBudgetError is TermBudgetError
    assert engine.EXPLICIT_TERM_BUDGET == EXPLICIT_TERM_BUDGET == 1_000_000


def test_term_count_fibonacci():
    counts = [term_count(n, 1) for n in range(1, 21)]
    assert counts[:6] == [1, 2, 3, 5, 8, 13]
    for n in range(2, 20):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_term_count_goldens():
    assert term_count(6, 1) == 13
    assert term_count(5, 1) == 8
    for p in (1, 2, 5):
        assert term_count(1, p) == 1


@given(st.integers(1, 9), st.integers(1, 3))
@settings(max_examples=40)
def test_term_count_matches_enumeration(n, p):
    brute = sum(
        len(list(enumerate_restricted_index_set(n, q, p)))
        for q in range(max_total_index(n, p) + 1)
    )
    assert term_count(n, p) == brute


def test_term_count_errors():
    with pytest.raises(ValueError):
        term_count(0, 1)
    with pytest.raises(ValueError):
        term_count(3, 0)


def test_refuse_raises_one_value_error_naming_the_count_and_the_cap():
    assert _refuse("x", 5, "units", 5) is None  # at the cap itself, admitted
    with pytest.raises(ValueError) as err:
        _refuse("a grid", math.inf, "steps", 5)  # a float count prints as it is
    assert type(err.value) is TermBudgetError
    assert (err.value.count, err.value.cap) == (math.inf, 5)
    assert str(err.value) == "a grid needs inf steps, over the cap of 5"


def test_every_cap_is_refused_by_the_one_helper():
    # The refusal and its wording live in combinatorics._refuse alone: no
    # other line of the package words a cap or raises the exception itself.
    package = Path(combinatorics.__file__).parent
    source = (package / "combinatorics.py").read_text()
    (helper,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "_refuse"
    ]
    wordings = [
        "over the cap of",
        "over the budget of",
        "expansion guard",
        "needs more than",
        "raise TermBudgetError",
    ]
    for path in sorted(package.glob("*.py")):
        lines = path.read_text().splitlines()
        if path.name == "combinatorics.py":
            for number in range(helper.lineno - 1, helper.end_lineno):
                lines[number] = ""
        for number, line in enumerate(lines, 1):
            for wording in wordings:
                assert wording not in line, f"{path.name}:{number}: {line.strip()}"
