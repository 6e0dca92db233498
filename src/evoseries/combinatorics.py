"""Index sets and exact rational weights for the noncommutative series coefficients.

The order-n coefficient of the series solution to dR/dt = A(t) R(t) is a sum
of weighted products A_{m_1} ... A_{m_{n-q}} over integer tuples m grouped by
their total index q = sum(m).  This module enumerates those tuples, computes
the exact weight attached to each product, and provides the two independent
weight-sum formulas whose agreement validates the construction.

A multi-index is a plain tuple of nonnegative ints.  For a tuple drawn from
the (n, q) family, sum(m) == q and len(m) == n - q, so n is recoverable as
sum(m) + len(m); nothing else is stored.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator

MultiIndex = tuple[int, ...]

__all__ = [
    "MultiIndex",
    "EXPLICIT_TERM_BUDGET",
    "TermBudgetError",
    "max_total_index",
    "enumerate_index_set",
    "enumerate_restricted_index_set",
    "pi_coefficient",
    "pi_sum",
    "multinomial_pi_sum",
    "term_count",
]

# Most terms an enumeration visits: the explicit formula's weighted products,
# the tuples or exponent vectors of a weight sum, or pi_sum's word multiply-adds.
EXPLICIT_TERM_BUDGET = 1_000_000


class TermBudgetError(ValueError):
    """A count of work over its cap, refused by _refuse before any of the work."""

    def __init__(self, message: str, count, cap: int):
        super().__init__(message)
        self.count = count
        self.cap = cap


def _refuse(what: str, count, unit: str, cap: int) -> None:
    """The one refusal of every cap: a count over cap raises TermBudgetError.

    Its message, "{what} needs {count} {unit}, over the cap of {cap}", is
    formed only then.  count is an int, or a float such as inf.
    """
    if count > cap:
        raise TermBudgetError(f"{what} needs {count} {unit}, over the cap of {cap}", count, cap)


def max_total_index(n: int, p: int) -> int:
    """Largest total index q that a degree-p coefficient family reaches at order n.

    Tuples of length n - q with entries capped at p can sum to q only while
    q <= p (n - q), i.e. q <= floor(p n / (p + 1)).
    """
    return (p * n) // (p + 1)


def _check_order_index(n: int, q: int) -> None:
    if n < 1:
        raise ValueError(f"series order n must be >= 1, got {n}")
    if not 0 <= q <= n - 1:
        raise ValueError(f"total index q must lie in [0, {n - 1}] for n={n}, got {q}")


def _check_restricted(n: int, q: int, p: int) -> None:
    # The (n, q, p) set exists only up to the degree-p cutoff.
    if p < 1:
        raise ValueError(f"coefficient degree p must be >= 1, got {p}")
    _check_order_index(n, q)
    cutoff = max_total_index(n, p)
    if q > cutoff:
        raise ValueError(
            f"total index q={q} exceeds the degree-{p} cutoff {cutoff} at order n={n}"
        )


def _refuse_over_budget(what: str, length: int, total: int, cap: int) -> None:
    # Counts the tuples in {0..cap}^length that sum to total, without enumerating them.
    _refuse(what, _bounded_count(length, total, cap), "index tuples", EXPLICIT_TERM_BUDGET)


def _compositions(total: int, length: int, cap: int) -> Iterator[MultiIndex]:
    # Lexicographically ascending tuples in {0..cap}^length with the given sum,
    # stepped on one list.  The successor raises the rightmost entry that is
    # below cap and has a nonzero sum behind it, then refills the entries
    # behind it with that sum less one, from the right, largest first.
    if total < 0 or total > cap * length:
        return
    if length == 0:
        yield ()
        return
    x = [0] * length
    rest = total
    for i in range(length - 1, -1, -1):
        x[i] = min(cap, rest)
        rest -= x[i]
    while True:
        yield tuple(x)
        behind = x[-1]
        i = length - 2
        while i >= 0 and (x[i] == cap or behind == 0):
            behind += x[i]
            i -= 1
        if i < 0:
            return
        x[i] += 1
        rest = behind - 1
        for j in range(length - 1, i, -1):
            x[j] = min(cap, rest)
            rest -= x[j]


def enumerate_index_set(n: int, q: int) -> Iterator[MultiIndex]:
    """All length-(n-q) tuples of nonnegative ints summing to q, lexicographically.

    Tuples are generated lazily; the full set at large n is huge and callers
    usually fold over it rather than materialize it.
    """
    _check_order_index(n, q)
    return _compositions(q, n - q, q)


def enumerate_restricted_index_set(n: int, q: int, p: int) -> Iterator[MultiIndex]:
    """The (n, q) tuples whose entries do not exceed p, lexicographically.

    These are the indices that actually contribute when the coefficient family
    stops at A_p.  Valid only for q <= max_total_index(n, p).
    """
    _check_restricted(n, q, p)
    return _compositions(q, n - q, p)


def _pi_denominator(m: MultiIndex) -> int:
    # The product of the factors m_j + ... + m_last + (len(m) - j + 1).
    return math.prod(map(operator.add, itertools.accumulate(reversed(m)), itertools.count(1)))


def pi_coefficient(m: MultiIndex) -> Fraction:
    """Exact weight of the product selected by the multi-index m.

    The weight is the product of reciprocals of nested suffix sums: position j
    (1-based) contributes the factor m_j + ... + m_last + (len(m) - j + 1).
    The leading factor is always sum(m) + len(m) = n and the trailing one
    m_last + 1.
    """
    if len(m) == 0:
        raise ValueError("multi-index must be nonempty")
    if min(m) < 0:
        raise ValueError(f"multi-index entries must be nonnegative, got {m}")
    return Fraction(1, _pi_denominator(m))


def pi_sum(n: int, q: int, p: int) -> Fraction:
    """Sum of the weights pi(m) over the restricted (n, q, p) index set, exactly.

    Summed as an integer over n!, by a recursion on suffixes instead of a
    visit to every tuple.  A tuple's weight is 1 / den(m), and den(m) is the
    product of its suffix factors: the leading one is sum(m) + len(m), and
    the rest is den of the tuple without its first entry.  So with f_k(s)
    the sum of (s + k)! / den over the length-k suffixes of sum s, entries
    at most p, f_0 = [1, 0, 0, ...] and

        f_k(s) = sum_{e <= min(p, s)} perm(s + k - 1, e) f_(k-1)(s - e),

    where e is the first entry and (s + k - 1)! / (s - e + k - 1)! the
    integer perm(s + k - 1, e), formed in the inner sum by one more factor
    each e.  The sum is f_(n-q)(q) / n!: at most
    (n - q)(q + 1)(min(p, q) + 1) integer multiply-adds.

    No integer the recursion holds exceeds n!: f_k(s) is (s + k)! times
    pi_sum(s + k, s, p), which is at most 1, as the weights of an order r,
    over every q, sum to the t^r coefficient of 1 / (1 - t) = exp(-log(1 - t)),
    the scalar solution for a_j = 1; its partial sums and each
    perm(s + k - 1, e) are at most (s + k)! too.  As n! <= n^n, each spans
    at most ceil(n * bitlength(n) / 64) 64-bit words.  More than
    EXPLICIT_TERM_BUDGET of the multiply-adds times those words are refused
    before any work.
    """
    _check_restricted(n, q, p)
    work = (n - q) * (q + 1) * (min(p, q) + 1) * ((n * n.bit_length() + 63) // 64)
    _refuse(f"pi_sum({n}, {q}, {p})", work, "word multiply-adds", EXPLICIT_TERM_BUDGET)
    sums = [1] + [0] * q
    for k in range(1, n - q + 1):
        row = []
        for s in range(q + 1):
            total, perm, factor = 0, 1, s + k - 1  # perm(s + k - 1, e), one factor more each e
            for f in sums[s : s - p - 1 if s > p else None : -1]:  # f_(k-1)(s - e), e <= min(p, s)
                total += perm * f
                perm *= factor
                factor -= 1
            row.append(total)
        sums = row
    return Fraction(sums[q], math.factorial(n))


def multinomial_pi_sum(n: int, q: int, p: int) -> Fraction:
    """The same weight sum computed from exponent counts instead of tuples.

    Sums 1 / (k_1! ... k_{p+1}! * 1^{k_1} * 2^{k_2} * ... * (p+1)^{k_{p+1}})
    over exponent vectors k with k_1 + ... + k_{p+1} = n - q and
    k_1 + 2 k_2 + ... + (p+1) k_{p+1} = n.  Counts how often each coefficient
    appears in a product rather than where, so it must agree with pi_sum; the
    agreement is a nontrivial identity and a primary correctness check.

    Summed as integer numerators over n!: n! // (prod_j k_j! j^{k_j}) is an
    integer, the number of permutations of n elements with k_j cycles of
    length j (Cauchy's formula), since sum_j j k_j = n.  The two sums give
    sum_j (j - 1) k_j = q, so (k_2, k_3, ...) lists the parts of a partition
    of q into parts of at most min(p, q), and k_1 = n - q - sum_(j>=2) k_j.
    Only the partitions with at most n - q parts, so k_1 >= 0, are visited:
    no vector is built to be thrown away.

    More than EXPLICIT_TERM_BUDGET exponent vectors, counted from a Gaussian
    binomial coefficient, are refused before any is visited; and, first, a
    count that would itself take more than EXPLICIT_TERM_BUDGET integer
    additions.  Then, before n! is formed, its n products and a division of
    it a vector, each on pi_sum's 64-bit words of n!, are refused likewise.
    """
    _check_restricted(n, q, p)
    largest, parts = min(p, q), n - q
    what = f"multinomial_pi_sum({n}, {q}, {p})"
    work = (q + 1) * min(largest, parts)
    _refuse(what, work, "integer additions to count its exponent vectors", EXPLICIT_TERM_BUDGET)
    count = _partition_count(q, largest, parts)
    _refuse(what, count, "exponent vectors", EXPLICIT_TERM_BUDGET)
    words = (n * n.bit_length() + 63) // 64  # n! <= n^n
    _refuse(what, (n + count) * words, "word operations", EXPLICIT_TERM_BUDGET)
    factorial = math.factorial(n)
    numerator = 0
    for counts in _partitions(q, largest, parts):
        # The parts largest, ..., 1 are the cycle lengths j = largest + 1, ..., 2.
        denominator = math.factorial(parts - sum(counts))
        for j, kj in zip(range(largest + 1, 1, -1), counts):
            denominator *= math.factorial(kj) * j**kj
        numerator += factorial // denominator
    return Fraction(numerator, factorial)


def _partitions(total: int, largest: int, parts: int) -> Iterator[MultiIndex]:
    # The partitions of total into at most parts parts of at most largest, as
    # counts (c_largest, ..., c_1) of each part size, in lexicographic order,
    # stepped on one list like _compositions.  With rest left to fill and room
    # for that many more parts, c_s runs from max(0, rest - (s - 1) room), the
    # fewest that leave the rest within reach of the smaller sizes, to
    # min(rest // s, room); so every prefix completes, and c_1 = rest.
    if total < 0 or total > largest * parts:
        return
    if largest == 0:
        yield ()
        return
    count = [0] * largest
    rest = [total] + [0] * largest  # rest[i], room[i]: left for positions i on
    room = [parts] + [0] * largest
    count[0] = max(0, total - (largest - 1) * parts)
    i = 0
    while True:
        for j in range(i, largest):
            size = largest - j
            rest[j + 1] = rest[j] - size * count[j]
            room[j + 1] = room[j] - count[j]
            if j + 1 < largest:
                count[j + 1] = max(0, rest[j + 1] - (size - 2) * room[j + 1])
        yield tuple(count)
        # Raise the rightmost free count below its most; c_1 is never free.
        i = largest - 2
        while i >= 0 and count[i] == min(rest[i] // (largest - i), room[i]):
            i -= 1
        if i < 0:
            return
        count[i] += 1


def _partition_count(total: int, largest: int, parts: int) -> int:
    # The number of _partitions(total, largest, parts): the x^total coefficient
    # of the Gaussian binomial [largest + parts, small]_x, that is of
    # prod_(i<=small) (1 - x^(big+i)) / (1 - x^i) with small and big the two
    # bounds in order, truncated at x^total.  At most 2 (total + 1) small
    # integer additions.
    small, big = sorted((largest, parts))
    coeffs = [1] + [0] * total
    for i in range(1, small + 1):
        for t in range(total, big + i - 1, -1):
            coeffs[t] -= coeffs[t - big - i]
        for t in range(i, total + 1):
            coeffs[t] += coeffs[t - i]
    return coeffs[total]


def _bounded_count(length: int, total: int, cap: int) -> int:
    # |{x in {0..cap}^length : sum(x) = total}| by inclusion-exclusion.
    count = 0
    for i in range(length + 1):
        rest = total - i * (cap + 1)
        if rest < 0:
            break
        count += (-1) ** i * math.comb(length, i) * math.comb(rest + length - 1, length - 1)
    return count


def term_count(n: int, p: int) -> int:
    """Number of weighted products contributing at order n for a degree-p family.

    Counted without enumeration so callers can budget-check before expanding.
    For p = 1 the counts follow the Fibonacci recurrence.
    """
    if n < 1:
        raise ValueError(f"series order n must be >= 1, got {n}")
    if p < 1:
        raise ValueError(f"coefficient degree p must be >= 1, got {p}")
    return sum(
        _bounded_count(n - q, q, p) for q in range(max_total_index(n, p) + 1)
    )
