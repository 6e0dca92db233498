"""Normal forms in the operator algebra generated by U and the down-shift S.

On one-sided sequence space, with S_r the up-shift and S = S_l the down-shift,
the letter U stands for -I + S_r.  The only relation needed is U S = I - S
(S U = I - S fails: S_r S_l is not the identity), and it rewrites any word
over {U, S} into an integer-coefficient combination of canonical monomials
S^s U^k with all shifts in front.  Powers of the birth-death coefficient
lam U - mu S U then split into a head polynomial in U plus S^s-prefixed tail
polynomials, the delayed contributions.

Words are strings over the letters U and S.  Every result is exact: a
ShiftPolynomial's coefficients are fractions.Fraction.  Inside, the work is on
Python ints.  The rewriting reduce runs in passes over a dict of str words and
their summed int signs, so each distinct branch word is rewritten once.
Groups, powers and the identity right sides come from one product kernel on
integer rows: row s holds the Python-int coefficients of
S^s U^0, S^s U^1, ..., right-multiplying by U shifts every row one place, and
right-multiplying by S is an alternating suffix sum within each row plus one
carry into the next row.  It runs in polynomial time; reduce is the oracle it
is tested against and never calls.  The kernel's rows come out in canonical
order, so its polynomials are built without the constructor's summing.

realize turns a polynomial into its matrix on a truncation.  Each monomial
S^s U^k is a band of signed binomials there, so realize places every term's
band once and sums them in term order, in O(T (size + max_shift) + size^2)
for T terms, with no matrix power; a zero product never changes a float sum
that starts at +0.0, so the matrix is bit for bit the dense sum of the
monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .combinatorics import _refuse

__all__ = [
    "ShiftPolynomial",
    "IdentityReport",
    "BinomialGroupDecomposition",
    "POWER_GUARD",
    "reduce",
    "shift_identities_check",
    "binomial_group",
    "power_expand",
    "realize",
    "letter_matrix",
]

POWER_GUARD = 32


def _as_terms(items) -> tuple:
    """Canonical terms of (key, coefficient) pairs: keys summed, zero sums dropped, sorted.

    int and Fraction coefficients are summed in their own types; any other
    is made a Fraction first, so a float adds exactly.  Each surviving sum
    is made a Fraction once, and a Fraction is kept as the object it is.
    """
    sums = {}
    for (s, k), coeff in items:
        if s < 0 or k < 0:
            raise ValueError(f"monomial exponents must be >= 0, got S^{s} U^{k}")
        if not isinstance(coeff, (int, Fraction)):
            coeff = Fraction(coeff)
        key = (s, k)
        sums[key] = sums[key] + coeff if key in sums else coeff
    return tuple(
        sorted((key, c if isinstance(c, Fraction) else Fraction(c)) for key, c in sums.items() if c)
    )


class ShiftPolynomial:
    """Finite sum of monomials c * S^s U^k with exact rational coefficients.

    Canonical: no zero coefficients, terms sorted by (s, k).  Two polynomials
    are equal exactly when their term lists are.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _as_terms(terms)

    @property
    def terms(self) -> tuple:
        return self._terms

    def coefficient(self, s: int, k: int) -> Fraction:
        for key, coeff in self._terms:
            if key == (s, k):
                return coeff
        return Fraction(0)

    @property
    def max_shift(self) -> int:
        return max((s for (s, _), _ in self._terms), default=0)

    @property
    def max_power(self) -> int:
        return max((k for (_, k), _ in self._terms), default=0)

    def is_zero(self) -> bool:
        return len(self._terms) == 0

    def with_delay(self, s: int) -> "ShiftPolynomial":
        """Left-multiply by S^s; exact on canonical monomials."""
        if s < 0:
            raise ValueError(f"delay must be >= 0, got {s}")
        return ShiftPolynomial(
            ((shift + s, k), c) for (shift, k), c in self._terms
        )

    def __add__(self, other: "ShiftPolynomial") -> "ShiftPolynomial":
        return ShiftPolynomial(list(self._terms) + list(other._terms))

    def __sub__(self, other: "ShiftPolynomial") -> "ShiftPolynomial":
        return self + (-other)

    def __neg__(self) -> "ShiftPolynomial":
        return ShiftPolynomial((key, -c) for key, c in self._terms)

    def __mul__(self, scalar) -> "ShiftPolynomial":
        return ShiftPolynomial((key, c * Fraction(scalar)) for key, c in self._terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShiftPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "ShiftPolynomial(0)"
        parts = [f"{c} S^{s} U^{k}" for (s, k), c in self._terms]
        return "ShiftPolynomial(" + " + ".join(parts) + ")"


def _parse_word(word) -> tuple[str, ...]:
    if isinstance(word, str):
        letters = tuple(word.replace(" ", "").upper())
    else:
        letters = tuple(str(c).upper() for c in word)
    for c in letters:
        if c not in ("U", "S"):
            raise ValueError(f"words may contain only U and S, got {c!r}")
    return letters


def reduce(word) -> ShiftPolynomial:
    """Canonical form of a word over {U, S}, by rewriting U S to I - S.

    pending maps each word still to rewrite to its summed int sign.  A pass
    rewrites every pending word at its leftmost U S into the word without it
    and, sign flipped, the word with S in its place; equal branch words merge,
    zero sums drop, and a word with no U S is collected as S^s U^k.  Each
    rewrite removes one U, so the passes end.  The normal form does not depend
    on the order of rewrites, so merging is sound.  Every pending word is
    S^a U^b z with z a suffix of the input: a word of L letters has O(L^3)
    distinct pending words and costs about O(L^4) letter operations.
    """
    pending = {"".join(_parse_word(word)): 1}
    collected: dict[tuple[int, int], int] = {}
    while pending:
        rewritten: dict[str, int] = {}
        for w, c in pending.items():
            i = w.find("US")
            if i < 0:
                key = (w.count("S"), w.count("U"))
                collected[key] = collected.get(key, 0) + c
                continue
            for branch, sign in ((w[:i] + w[i + 2 :], c), (w[:i] + "S" + w[i + 2 :], -c)):
                rewritten[branch] = rewritten.get(branch, 0) + sign
        pending = {w: c for w, c in rewritten.items() if c}
    return ShiftPolynomial(collected)


def _times_u(rows: list) -> list:
    # rows * U: every S^s U^k becomes S^s U^(k+1).
    return [[0, *row] for row in rows]


def _times_s(rows: list) -> list:
    """rows * S, one row longer, by U S = I - S.

    (S^s U^k) S = sum_{i<k} (-1)^i S^s U^(k-1-i) + (-1)^k S^(s+1), so row s
    becomes its alternating suffix sums t_j = c_(j+1) - t_(j+1), and the full
    alternating sum c_0 - t_0 is carried into row s+1 at U^0.
    """
    out = []
    carry = 0
    for row in rows:
        new = [0] * max(len(row) - 1, 1)
        acc = 0
        for j in range(len(row) - 1, 0, -1):
            acc = row[j] - acc
            new[j - 1] = acc
        new[0] += carry
        carry = row[0] - acc
        out.append(new)
    out.append([carry])
    return out


def _combine(a: int, p: list, b: int, q: list) -> list:
    # a * p + b * q on rows of any lengths.
    return [
        [a * x + b * y for x, y in zip_longest(pr, qr, fillvalue=0)]
        for pr, qr in zip_longest(p, q, fillvalue=())
    ]


def _u_power(k: int) -> list:
    return [[0] * k + [1]]


def _row_terms(rows: list):
    # The nonzero entries of the rows as ((s, k), c) pairs, in (s, k) order.
    return (((s, k), c) for s, row in enumerate(rows) for k, c in enumerate(row) if c)


def _polynomial(rows: list, denominator: int = 1) -> ShiftPolynomial:
    # The rows as a polynomial, every coefficient divided by denominator >= 1.
    # _row_terms yields distinct keys in (s, k) order and no zeros, so the
    # terms are canonical as built and skip the constructor's summing.
    poly = ShiftPolynomial.__new__(ShiftPolynomial)
    poly._terms = tuple((key, Fraction(c, denominator)) for key, c in _row_terms(rows))
    return poly


@dataclass(frozen=True)
class IdentityReport:
    """Results of the three structural identities at one (q, r).

    absorb:   U^q S^(q+r-1) == (I - S)^q S^(r-1)
    transfer: U^(q+r) S^q == U^r (I - S)^q
    peel:     U^r (I - S)^q == U^r (I - S)^(q-1) - U^(r-1) (I - S)^q
    """

    q: int
    r: int
    absorb: bool
    transfer: bool
    peel: bool

    @property
    def all_pass(self) -> bool:
        return self.absorb and self.transfer and self.peel


def shift_identities_check(q: int, r: int) -> IdentityReport:
    """Check the power-cancellation identities by reducing both sides.

    Left sides of absorb and transfer are raw words put through reduce; their
    right sides come from a closed form and from the product kernel, so
    agreement checks the rewriting and the kernel against each other.  The
    right sides stay integer rows: one chain U^r (I - S)^i for i <= q, and
    U^(r-1) (I - S)^q.  Their nonzero entries, in (s, k) order, are compared
    with reduce's terms directly, since an int equals a Fraction of the same
    value, so no Fraction polynomial is built.
    """
    if q < 1 or r < 1:
        raise ValueError(f"need q >= 1 and r >= 1, got q={q}, r={r}")
    absorb_lhs = reduce("U" * q + "S" * (q + r - 1)).terms
    absorb_rhs = tuple(((k + r - 1, 0), (-1) ** k * math.comb(q, k)) for k in range(q + 1))
    transfer_lhs = reduce("U" * (q + r) + "S" * q).terms
    before = rows = _u_power(r)  # before ends as U^r (I - S)^(q-1), rows as U^r (I - S)^q
    for _ in range(q):
        before, rows = rows, _combine(1, rows, -1, _times_s(rows))
    shorter = _u_power(r - 1)  # U^(r-1) (I - S)^q
    for _ in range(q):
        shorter = _combine(1, shorter, -1, _times_s(shorter))
    transfer_rhs = peel_lhs = tuple(_row_terms(rows))
    peel_rhs = tuple(_row_terms(_combine(1, before, -1, shorter)))
    return IdentityReport(
        q=q,
        r=r,
        absorb=absorb_lhs == absorb_rhs,
        transfer=transfer_lhs == transfer_rhs,
        peel=peel_lhs == peel_rhs,
    )


@dataclass(frozen=True)
class BinomialGroupDecomposition:
    """Reduced sum over all interleavings of m plain-U atoms and j S U atoms.

    head collects the undelayed part (monomials S^0 U^k) as a polynomial in
    U; tails[i] is the polynomial in U behind the prefix S^(i+1).  Both are
    stored as ShiftPolynomials with zero shift, so combined() rebuilds the
    group as head + sum_s S^s tails[s-1].
    """

    m: int
    j: int
    head: ShiftPolynomial
    tails: tuple[ShiftPolynomial, ...]

    @property
    def k(self) -> int:
        return self.m + self.j

    def combined(self) -> ShiftPolynomial:
        total = self.head
        for i, tail in enumerate(self.tails, start=1):
            total = total + tail.with_delay(i)
        return total


def binomial_group(m: int, j: int) -> BinomialGroupDecomposition:
    """Reduced sum of the C(m+j, m) interleavings of m U atoms and j S U atoms.

    These groups are what the binomial theorem would produce for
    (lam U - mu S U)^k if the atoms commuted; they do not, so each group keeps
    every ordering.  Each interleaving ends in one atom or the other, so
    G(a, b) = G(a-1, b) U + G(a, b-1) S U = (G(a-1, b) + G(a, b-1) S) U, with
    G(a, 0) = U^a and G(-1, b) = 0, fills the groups a by a in polynomial time.
    The groups have integer coefficients, so they stay on the kernel's integer
    rows throughout.  Guarded at k <= POWER_GUARD.
    """
    if m < 0 or j < 0 or m + j < 1:
        raise ValueError(f"need m, j >= 0 with m + j >= 1, got m={m}, j={j}")
    k = m + j
    _refuse(f"binomial_group({m}, {j})", k, "atoms", POWER_GUARD)
    groups = [[]] * (j + 1)  # groups[b] holds G(a, b) as integer rows
    for a in range(m + 1):
        groups[0] = _u_power(a)
        for b in range(1, j + 1):
            groups[b] = _times_u(_combine(1, groups[b], 1, _times_s(groups[b - 1])))
    # G(m, j) has rows S^0 .. S^j, and its row S^j is never zero.
    head, *tails = (_polynomial([row]) for row in groups[j])
    return BinomialGroupDecomposition(m=m, j=j, head=head, tails=tuple(tails))


def power_expand(power: int, lam, mu) -> ShiftPolynomial:
    """(lam U - mu S U)^power in canonical form, coefficients exact.

    With L the lcm of the denominators of lam and mu, lam U - mu S U is
    (a U - b S U) / L for integers a = lam L and b = mu L.  The identity is
    right-multiplied power times by a U - b S U = (a - b S) U on integer rows,
    in polynomial time, and the result is divided by L^power once.  lam and mu
    may be anything Fraction accepts.  Guarded at power <= POWER_GUARD.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    _refuse(f"(lam U - mu S U)^{power}", power, "factors", POWER_GUARD)
    lam, mu = Fraction(lam), Fraction(mu)
    scale = math.lcm(lam.denominator, mu.denominator)
    a = lam.numerator * (scale // lam.denominator)
    b = mu.numerator * (scale // mu.denominator)
    rows = _u_power(0)
    for _ in range(power):
        rows = _times_u(_combine(a, rows, -b, _times_s(rows)))
    return _polynomial(rows, scale**power)


def letter_matrix(letter: str, size: int) -> np.ndarray:
    """Truncated matrix for a single word letter: U = -I + S_r, S = S_l."""
    if letter == "U":
        return -np.eye(size) + np.eye(size, k=1)
    if letter == "S":
        return np.eye(size, k=-1)
    raise ValueError(f"unknown letter {letter!r}")


def _signed_binomials(k: int) -> np.ndarray:
    """table[n, j] = (-1)^(n-j) C(n, j), the entries of U^n on its diagonal j, for n, j <= k.

    U = -I + S_r, so row n is row n - 1 moved one place right minus row n - 1,
    the one rounding that the matrix product U^(n-1) U makes at each entry;
    below 2^53 every entry is an exact integer.
    """
    table = np.zeros((k + 1, k + 1))
    table[0, 0] = 1.0
    for n in range(1, k + 1):
        table[n, 1:] = table[n - 1, :-1]
        table[n] -= table[n - 1]
    return table


def realize(poly: ShiftPolynomial, size: int) -> np.ndarray:
    """Matrix of the polynomial on the size x size truncation.

    Truncation breaks the infinite-dimensional relations near the last rows,
    so two expressions equal in the algebra agree only on a leading block;
    callers comparing a realized word of length L should restrict to the
    first size - L rows and columns.  Requires size > max_shift + max_power
    so at least one row survives.

    U^k is upper triangular and Toeplitz, so the truncation of S^s U^k is a
    band: its entry (r, c), r >= s, is (-1)^(k-j) C(k, j) with j = c - r + s
    when 0 <= j <= k, and 0 otherwise.  With m the largest shift, every term
    therefore lands on one row of a band indexed by the offset c - r + m:
    term t is float(c_t) times its signed binomials (_signed_binomials) at
    offsets m - s_t .. m - s_t + k_t.  One running sum down the terms, in
    term order, holds in its row t the sum of the first t terms; the terms
    are sorted by shift, so row r of the matrix sees a prefix of them, those
    with s_t <= r, and reads that prefix's row at the offsets of its
    columns.  A negative offset, left of every band, reads a last column
    that no term reaches.  This costs O(T (size + m) + size^2) for T terms
    and forms no matrix power.

    The result is bit for bit the sum of float(c) S^s U^k over the terms in
    order, each monomial a dense product: the nonzero products are the
    same, added in the same order, and the others are +0 or -0, which leave
    a running sum that starts at +0.0 unchanged (x + 0 = x, +0 + -0 = +0,
    and an exact cancellation gives +0).
    """
    m, kmax = poly.max_shift, poly.max_power
    if size <= m + kmax:
        raise ValueError(f"size {size} too small for monomials up to S^{m} U^{kmax}")
    terms = poly.terms
    keys = np.array([key for key, _ in terms], dtype=np.intp).reshape(len(terms), 2)
    shifts, powers = keys.T
    # float(c) is this division, called through numbers.Rational.
    values = np.array([c.numerator / c.denominator for _, c in terms])
    band = np.zeros((len(terms) + 1, m + size + 1))
    offsets = (m - shifts)[:, None] + np.arange(kmax + 1)
    products = values[:, None] * _signed_binomials(kmax)[powers]
    band[np.arange(1, len(terms) + 1)[:, None], offsets] = products
    sums = np.add.accumulate(band, axis=0)
    prefix = np.searchsorted(shifts, np.arange(m + 1), side="right")  # terms with s_t <= r
    r = np.arange(size)
    columns = np.add.outer(m - r, r)
    np.maximum(columns, -1, out=columns)
    return sums[prefix[np.minimum(r, m)][:, None], columns]
