import functools
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoseries.combinatorics import TermBudgetError
from evoseries.shift_algebra import (
    POWER_GUARD,
    BinomialGroupDecomposition,
    IdentityReport,
    ShiftPolynomial,
    _combine,
    _polynomial,
    _times_s,
    _u_power,
    binomial_group,
    letter_matrix,
    power_expand,
    realize,
    reduce,
    shift_identities_check,
)

words = st.text(alphabet="US", min_size=0, max_size=10)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def reduce_reference(word, rng=None):
    # The rewriter on letter tuples with a Fraction sign a branch.
    pending = [(tuple(word), Fraction(1))]
    collected = {}
    while pending:
        w, c = pending.pop()
        spots = [i for i in range(len(w) - 1) if w[i] == "U" and w[i + 1] == "S"]
        if not spots:
            key = (w.count("S"), w.count("U"))
            collected[key] = collected.get(key, Fraction(0)) + c
            continue
        i = spots[0] if rng is None else rng.choice(spots)
        pending.append((w[:i] + w[i + 2 :], c))
        pending.append((w[:i] + ("S",) + w[i + 2 :], -c))
    return ShiftPolynomial(collected)


def upoly(*pairs):
    # polynomial in U alone: pairs of (power, coeff)
    return ShiftPolynomial({(0, k): c for k, c in pairs})


def test_polynomial_canonical_form():
    p = ShiftPolynomial({(0, 1): Fraction(2), (1, 0): Fraction(0)})
    assert p.terms == (((0, 1), Fraction(2)),)
    assert (p - p).is_zero()
    assert p + p == ShiftPolynomial({(0, 1): 4})
    assert 3 * p == ShiftPolynomial({(0, 1): 6})
    assert p.with_delay(2) == ShiftPolynomial({(2, 1): 2})
    with pytest.raises(ValueError):
        ShiftPolynomial({(-1, 0): 1})


def test_reduce_base_cases():
    assert reduce("") == ShiftPolynomial({(0, 0): 1})
    assert reduce("U") == ShiftPolynomial({(0, 1): 1})
    assert reduce("SU") == ShiftPolynomial({(1, 1): 1})
    # the defining relation: U S = I - S
    assert reduce("US") == ShiftPolynomial({(0, 0): 1, (1, 0): -1})
    # S U S U = S(I - S)U
    assert reduce("SUSU") == ShiftPolynomial({(1, 1): 1, (2, 1): -1})


def test_reduce_rejects_unknown_letters():
    with pytest.raises(ValueError):
        reduce("UXS")


def test_reduce_canonical_words_pass_through():
    for s in range(3):
        for k in range(3):
            if s + k == 0:
                continue
            word = "S" * s + "U" * k
            assert reduce(word) == ShiftPolynomial({(s, k): 1})


@given(st.text(alphabet="US", min_size=0, max_size=12), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_reduce_matches_the_tuple_rewriter_under_any_order(word, seed):
    # The merged passes against one branch a word, leftmost and random
    # adjacencies: the normal form does not depend on the order of rewrites.
    got = reduce(word).terms
    assert got == reduce_reference(word).terms
    assert got == reduce_reference(word, rng=random.Random(seed)).terms


def run_python(code):
    # A subprocess with a timeout, so a rewriter that blows up fails, not hangs.
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
    )


def test_reduce_long_absorb_word_in_a_subprocess():
    # U^30 S^30 = (I - S)^30, the absorb identity at r = 1: a rewriter that
    # does not merge equal branch words takes exponential time here.
    proc = run_python(
        "from evoseries.shift_algebra import reduce\n"
        "print(repr(reduce('U' * 30 + 'S' * 30).terms))"
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    want = tuple(((k, 0), Fraction((-1) ** k * math.comb(30, k))) for k in range(31))
    assert eval(proc.stdout, {"Fraction": Fraction}) == want


def test_identities_at_twelve_in_a_subprocess():
    proc = run_python(
        "from evoseries.shift_algebra import shift_identities_check\n"
        "assert shift_identities_check(12, 12).all_pass"
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_shift_polynomial_keeps_fraction_coefficients_as_given():
    half = Fraction(1, 2)
    poly = ShiftPolynomial({(0, 1): half, (2, 0): 3})
    assert poly.terms[0][1] is half
    assert poly.terms[1][1] == Fraction(3) and type(poly.terms[1][1]) is Fraction
    assert all(type(c) is Fraction for _, c in reduce("UUSSUS").terms)


def test_shift_polynomial_sums_floats_exactly_and_drops_cancelling_terms():
    # 0.1 + 0.2 is summed as the two exact binary fractions, not as floats.
    poly = ShiftPolynomial([((0, 1), 0.1), ((0, 1), 0.2), ((1, 0), 3), ((1, 0), -3), ((2, 2), 0)])
    assert poly.terms == (((0, 1), Fraction(0.1) + Fraction(0.2)),)
    assert poly.coefficient(0, 1) != Fraction(0.1 + 0.2)
    mixed = ShiftPolynomial([((0, 0), 1), ((0, 0), Fraction(1, 2)), ((3, 1), 2), ((3, 1), -1)])
    assert mixed.terms == (((0, 0), Fraction(3, 2)), ((3, 1), Fraction(1)))
    assert all(type(c) is Fraction for _, c in mixed.terms)
    assert ShiftPolynomial([((0, 0), Fraction(1, 3)), ((0, 0), -Fraction(1, 3))]).is_zero()


@given(words)
@settings(max_examples=100)
def test_reduce_agrees_with_matrices(word):
    size = 16
    block = size - max(1, len(word))
    product = np.eye(size)
    for ch in word:
        product = product @ letter_matrix(ch, size)
    realized = realize(reduce(word), size)
    assert np.array_equal(product[:block, :block], realized[:block, :block])


def word_power_mixed(p: int, q: int) -> ShiftPolynomial:
    """The paper's closed form for U^p (S U)^q, p, q >= 1, without any rewriting.

    U^p (S U)^q = sum_{k=0}^{p-1} (-1)^k C(q+k-1, k) U^{p-k}
                + sum_{k=p}^{q+p-1} (-1)^k C(q+p-1, k) S^{k-p+1} U.

    The first sum is the head (pure powers of U); the second collapses every
    delayed contribution to a single trailing U.
    """
    terms = {(0, p - k): (-1) ** k * math.comb(q + k - 1, k) for k in range(p)}
    for k in range(p, q + p):
        terms[(k - p + 1, 1)] = (-1) ** k * math.comb(q + p - 1, k)
    return ShiftPolynomial(terms)


def test_word_power_mixed_small_cases():
    assert word_power_mixed(1, 1) == ShiftPolynomial({(0, 1): 1, (1, 1): -1})
    assert word_power_mixed(2, 2) == ShiftPolynomial(
        {(0, 2): 1, (0, 1): -2, (1, 1): 3, (2, 1): -1}
    )


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_word_power_mixed_matches_reduce(p, q):
    assert word_power_mixed(p, q) == reduce("U" * p + "SU" * q)


def test_identities_hold():
    for q in range(1, 5):
        for r in range(1, 5):
            report = shift_identities_check(q, r)
            assert report.all_pass, (q, r, report)


def _binomial_in_s(power, u_prefix):
    # U^{u_prefix} (I - S)^{power} as a Fraction polynomial.
    rows = _u_power(u_prefix)
    for _ in range(power):
        rows = _combine(1, rows, -1, _times_s(rows))
    return _polynomial(rows)


def identities_reference(q, r):
    # The check with every right side built as a ShiftPolynomial.
    absorb_rhs = ShiftPolynomial(
        {(k + r - 1, 0): (-1) ** k * math.comb(q, k) for k in range(q + 1)}
    )
    transfer_rhs = peel_lhs = _binomial_in_s(q, u_prefix=r)
    peel_rhs = _binomial_in_s(q - 1, u_prefix=r) - _binomial_in_s(q, u_prefix=r - 1)
    return IdentityReport(
        q=q,
        r=r,
        absorb=reduce("U" * q + "S" * (q + r - 1)) == absorb_rhs,
        transfer=reduce("U" * (q + r) + "S" * q) == transfer_rhs,
        peel=peel_lhs == peel_rhs,
    )


def test_identities_on_integer_rows_match_the_fraction_polynomial_reference():
    for q in range(1, 9):
        for r in range(1, 9):
            report = shift_identities_check(q, r)
            assert report == identities_reference(q, r) and report.all_pass, (q, r, report)


def test_identities_hand_case():
    # q = r = 1: U S == (I - S) and U^2 S == U(I - S)
    report = shift_identities_check(1, 1)
    assert report.absorb and report.transfer and report.peel


def test_binomial_group_worked_example():
    group = binomial_group(2, 2)
    assert group.k == 4
    assert group.head == upoly((2, 3), (1, -3))
    assert group.tails[0] == upoly((3, 3), (2, -5), (1, 6))
    assert group.tails[1] == upoly((3, -1), (2, 2), (1, -3))
    assert len(group.tails) == 2


def test_binomial_group_cubic_table():
    # all four groups behind the cubic expansion
    g30 = binomial_group(3, 0)
    assert g30.head == upoly((3, 1)) and g30.tails == ()
    g21 = binomial_group(2, 1)
    assert g21.head == upoly((2, 2), (1, -1))
    assert g21.tails == (upoly((3, 1), (2, -1), (1, 1)),)
    g12 = binomial_group(1, 2)
    assert g12.head == upoly((1, 1))
    assert g12.tails == (upoly((2, 2), (1, -3)), upoly((2, -1), (1, 2)))
    g03 = binomial_group(0, 3)
    assert g03.head.is_zero()
    assert g03.tails == (upoly((1, 1)), upoly((1, -2)), upoly((1, 1)))


def test_binomial_group_recombines():
    # oracle: reduce every interleaving word, for every group with m + j <= 7
    for m, j in [(m, k - m) for k in range(1, 8) for m in range(k + 1)]:
        group = binomial_group(m, j)
        direct = ShiftPolynomial()
        for positions in itertools.combinations(range(m + j), m):
            chosen = set(positions)
            word = "".join("U" if i in chosen else "SU" for i in range(m + j))
            direct = direct + reduce(word)
        assert group.combined() == direct, (m, j)


def test_binomial_group_head_power_cap():
    # undelayed part never exceeds U^m
    for m, j in [(1, 3), (2, 2), (3, 2), (0, 5)]:
        group = binomial_group(m, j)
        assert group.head.max_power <= m


def test_binomial_group_guard():
    with pytest.raises(TermBudgetError) as refused:
        binomial_group(POWER_GUARD - 5, 6)
    assert str(refused.value) == "binomial_group(27, 6) needs 33 atoms, over the cap of 32"
    with pytest.raises(ValueError):
        binomial_group(0, 0)


def test_power_expand_first_power():
    lam, mu = Fraction(3), Fraction(2)
    assert power_expand(1, lam, mu) == ShiftPolynomial({(0, 1): 3, (1, 1): -2})


def test_power_expand_cubic_matches_group_table():
    lam, mu = Fraction(5), Fraction(7)
    expected = (
        binomial_group(3, 0).combined() * lam**3
        + binomial_group(2, 1).combined() * (-(lam**2) * mu)
        + binomial_group(1, 2).combined() * (lam * mu**2)
        + binomial_group(0, 3).combined() * (-(mu**3))
    )
    assert power_expand(3, lam, mu) == expected
    # spot-check one collected coefficient: S^1 U^1 picks up
    # -lam^2 mu - 3 lam mu^2 - mu^3
    coeff = power_expand(3, lam, mu).coefficient(1, 1)
    assert coeff == -(lam**2) * mu - 3 * lam * mu**2 - mu**3


def test_power_expand_binomial_oracle():
    # expand (lam U - mu S U)^k the brute way: 2^k sign words
    lam, mu = Fraction(2), Fraction(3)
    for k in range(1, 7):
        direct = ShiftPolynomial()
        for picks in itertools.product((0, 1), repeat=k):
            word = "".join("U" if c == 0 else "SU" for c in picks)
            weight = lam ** (k - sum(picks)) * (-mu) ** sum(picks)
            direct = direct + reduce(word) * weight
        assert power_expand(k, lam, mu) == direct


@functools.lru_cache(maxsize=None)
def sign_word_sum(k):
    # (lam U - mu S U)^k through reduce: for each count j of S U atoms, the
    # sum of the reduced words with j of them, weighted lam^(k-j) (-mu)^j.
    sums = [ShiftPolynomial()] * (k + 1)
    for picks in itertools.product((0, 1), repeat=k):
        word = "".join("U" if c == 0 else "SU" for c in picks)
        sums[sum(picks)] = sums[sum(picks)] + reduce(word)
    return tuple(sums)


@given(st.integers(1, 6), rationals, rationals)
@example(6, Fraction(3, 7), Fraction(-5, 11))
@example(5, Fraction(-1, 6), Fraction(3, 4))
@example(4, Fraction(0), Fraction(2, 9))
@example(4, Fraction(-4, 3), Fraction(0))
@settings(max_examples=60, deadline=None)
def test_power_expand_rational_oracle(k, lam, mu):
    # the lcm scaling of the denominators against the reduce oracle
    direct = ShiftPolynomial()
    for j, group in enumerate(sign_word_sum(k)):
        direct = direct + group * (lam ** (k - j) * (-mu) ** j)
    assert power_expand(k, lam, mu) == direct


@pytest.mark.parametrize(
    "lam, mu",
    [("3/7", "-5/11"), (" 2 ", "0.1"), (3, -2), (0, 7), (0.375, -1.25), (0.1, 1 / 3)],
)
def test_power_expand_accepts_what_fraction_accepts(lam, mu):
    for k in (1, 4, 7):
        assert power_expand(k, lam, mu) == power_expand(k, Fraction(lam), Fraction(mu))


def test_power_expand_guard():
    with pytest.raises(TermBudgetError) as refused:
        power_expand(POWER_GUARD + 1, 1, 1)
    assert str(refused.value) == "(lam U - mu S U)^33 needs 33 factors, over the cap of 32"
    with pytest.raises(ValueError):
        power_expand(0, 1, 1)


@pytest.mark.parametrize("k, size", [(20, 60), (POWER_GUARD, 80)])
def test_power_expand_past_rewriting_range_matches_matrix_power(k, size):
    # k = 20 is out of reach of word enumeration; the realized power must
    # still equal the kth power of the realized factor on a leading block
    lam, mu = Fraction(3, 7), Fraction(5, 2)
    got = realize(power_expand(k, lam, mu), size)[:k, :k]
    factor = realize(power_expand(1, lam, mu), size)
    want = np.linalg.matrix_power(factor, k)[:k, :k]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def matrix_power_realize(poly, size):
    # reference definition: sum of float(c) S^s U^k, each monomial a product
    # of matrix powers
    u = letter_matrix("U", size)
    s = letter_matrix("S", size)
    out = np.zeros((size, size))
    for (sh, kp), coeff in poly.terms:
        mono = np.linalg.matrix_power(s, sh) @ np.linalg.matrix_power(u, kp)
        out += float(coeff) * mono
    return out


def assert_realize_matches_reference(poly, extra):
    size = poly.max_shift + poly.max_power + 1 + extra
    got = realize(poly, size)
    assert got.tobytes() == matrix_power_realize(poly, size).tobytes()


@pytest.mark.parametrize("extra", [0, 1, 7, 30])
def test_realize_bytes_equal_matrix_power_definition(extra):
    polys = [
        ShiftPolynomial(),
        ShiftPolynomial({(0, 0): 1}),
        ShiftPolynomial({(3, 0): Fraction(-2, 3)}),
        ShiftPolynomial({(0, 40): Fraction(1, 7)}),
        reduce("USUSSUU"),
        binomial_group(3, 4).combined(),
        power_expand(6, Fraction(3, 7), Fraction(5, 11)),
        power_expand(13, Fraction(-1, 9), Fraction(8, 3)),
        power_expand(POWER_GUARD, Fraction(3, 7), Fraction(5, 2)),
        ShiftPolynomial({(0, 0): Fraction(10**300), (1, 2): Fraction(-1, 10**300), (2, 1): 1}),
    ]
    for poly in polys:
        assert_realize_matches_reference(poly, extra)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 16), st.integers(0, POWER_GUARD)), rationals, max_size=12
    ),
    st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_realize_bytes_equal_matrix_power_definition_random(terms, extra):
    assert_realize_matches_reference(ShiftPolynomial(terms), extra)


def test_realize_large_truncation_in_a_subprocess():
    # The band sum forms no size x size power: the 33 dense powers of U
    # would hold about a gigabyte at this size.
    proc = run_python(
        "import resource\n"
        "from evoseries.shift_algebra import power_expand, realize\n"
        "poly = power_expand(32, '3/7', '5/2')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "out = realize(poly, 2000)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(out.shape, (after - before) / 1024)"
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    shape, grown_mb = proc.stdout.rsplit(" ", 1)
    assert shape == "(2000, 2000)"
    assert float(grown_mb) < 300, grown_mb


@given(
    st.lists(st.lists(st.integers(-50, 50), max_size=6), min_size=1, max_size=6),
    st.integers(1, 40),
)
@settings(max_examples=100, deadline=None)
def test_kernel_rows_become_the_canonical_polynomial(rows, denominator):
    # _polynomial builds its terms directly: they must be what the public
    # constructor makes of the same entries.
    entries = [
        ((s, k), Fraction(c, denominator)) for s, row in enumerate(rows) for k, c in enumerate(row)
    ]
    got = _polynomial(rows, denominator)
    assert got.terms == ShiftPolynomial(entries).terms
    assert all(type(c) is Fraction for _, c in got.terms)


def test_realize_small_cases():
    size = 6
    assert np.array_equal(realize(ShiftPolynomial({(0, 0): 1}), size), np.eye(size))
    u = letter_matrix("U", size)
    s = letter_matrix("S", size)
    assert np.array_equal(realize(ShiftPolynomial({(1, 1): 1}), size), s @ u)


def test_realize_size_guard():
    poly = ShiftPolynomial({(2, 3): 1})
    with pytest.raises(ValueError):
        realize(poly, 5)
    realize(poly, 6)  # boundary size is allowed
