"""Series solver for dR/dt = A(t) R(t) with matrix-polynomial A(t).

Coefficients R_n of R(t) = I + R_1 t + ... + R_N t^N come from two
independent routes: the fundamental recursion
n R_n = A_0 R_{n-1} + A_1 R_{n-2} + ... (products taken on the orientation
side), and the explicit formula summing weighted coefficient products over
index sets.  A local expansion's error, rounding included, is certified by
the scalar majorant exp(integral of the coefficient norms), finite for every
step; longer horizons re-expand at shifted origins and compose the per-step
propagators, adding the rounding of each product to the bound.  The majorant
runs stacked: one array pass bounds every step of a solve.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    EXPLICIT_TERM_BUDGET,
    TermBudgetError,
    _bounded_count,
    _refuse,
    max_total_index,
)
from .scalar import MAX_SERIES_PRODUCTS, _check_order, scalar_coefficients

__all__ = [
    "Orientation",
    "TermBudgetError",
    "MatrixPolynomial",
    "MatrixPolyCoefficients",
    "MatrixSeries",
    "Trajectory",
    "ResidualComparison",
    "compute_coefficients",
    "compute_coefficients_explicit",
    "tail_bound",
    "residual",
    "naive_exponential",
    "recenter",
    "solve_stepped",
    "counterexample_coefficients",
    "counterexample_report",
]

# Most doubles one array of series terms may hold: 1 GiB.  _expand refuses a
# larger term stack, and _plan counts a stepped solve's peak against the same cap.
MAX_DOUBLES = 2**27
# Largest grid solve_stepped accepts: a million local expansions already take
# minutes even for 2x2 families, so a larger count is a mistaken step.
MAX_STEPS = 1_000_000
# Most doubles of series or shift one block of a stepped solve holds, and of
# series one _local_bound call stacks (_plan): enough steps to spread numpy's
# per-call cost, few enough that a long grid does not raise the peak memory.
_BLOCK_DOUBLES = 2**16
# Unit roundoff of a double: a rounded operation has relative error at most _U.
_U = 2.0**-53


class Orientation(enum.Enum):
    """Which side A(t) multiplies on: LEFT is dR/dt = A R, RIGHT is dR/dt = R A."""

    LEFT = "left"
    RIGHT = "right"


def _frozen(values) -> np.ndarray:
    """values as a read-only float array, copied unless it already is one."""
    if isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable:
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _horner(stack: np.ndarray, t) -> np.ndarray:
    """sum_k stack[k] t^k by Horner's rule, for a stack of matrices or of vectors.

    t is a float, or an array that broadcasts against one term: a (S, 1, 1)
    array evaluates a (k+1, S, d, d) stack at one time per step.

    Overflow gives inf entries, and inf times 0 or inf - inf nan entries,
    without a floating-point warning: a caller that certifies the value
    reports the lost certificate through its bound.
    """
    acc = np.array(stack[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for term in stack[-2::-1]:
            acc *= t
            acc += term
    return acc


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Square matrices C_0..C_k, the coefficients of t^0..t^k, as one (k+1, d, d) stack.

    The stack is read-only.  Construction checks it once: at least one
    coefficient, all square and of one shape, every entry finite.
    """

    stack: np.ndarray

    def __post_init__(self) -> None:
        try:
            stack = _frozen(self.stack)
        except ValueError:
            raise ValueError("coefficients must be real square matrices of one shape") from None
        if len(stack) == 0:
            raise ValueError("need at least the degree-0 coefficient")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(
                f"coefficients must be square matrices of one shape, got {stack.shape[1:]}"
            )
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"coefficient of t^{int(np.argmin(finite))} has a non-finite entry")
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def degree(self) -> int:
        return len(self.stack) - 1

    def coefficient(self, k: int) -> np.ndarray:
        """Degree-k coefficient; zero matrix beyond the stored degree."""
        if k < 0:
            raise ValueError(f"degree must be >= 0, got {k}")
        if k <= self.degree:
            return self.stack[k]
        return np.zeros((self.dim, self.dim))

    def value_at(self, t: float) -> np.ndarray:
        """The polynomial at t by Horner evaluation."""
        return _horner(self.stack, t)



@dataclass(frozen=True, eq=False)
class MatrixPolyCoefficients(MatrixPolynomial):
    """Coefficients A_0..A_p of a matrix polynomial plus the side it acts on.

    RIGHT orientation is the row-vector convention used for Markov generators,
    where distributions evolve as p(t) = p(0) R(t).
    """

    orientation: Orientation = Orientation.LEFT

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "orientation", Orientation(self.orientation))


def _norms(mats: np.ndarray, orientation: Orientation) -> np.ndarray:
    """The l1 operator norms of a (..., d, d) stack, as an array of the leading shape.

    LEFT acts on column vectors, so the induced norm is the max absolute
    column sum; RIGHT acts on row vectors, max absolute row sum.
    """
    axis = -2 if orientation is Orientation.LEFT else -1
    return np.abs(mats).sum(axis=axis).max(axis=-1, initial=0.0)


@dataclass(frozen=True, eq=False)
class MatrixSeries(MatrixPolynomial):
    """Terms R_0 = I, R_1, ..., R_N of the series solution."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.array_equal(self.stack[0], np.eye(self.dim)):
            raise ValueError("order-0 term must be exactly the identity")

    @property
    def terms(self) -> np.ndarray:
        """The read-only (N+1, d, d) stack of R_0..R_N."""
        return self.stack


def compute_coefficients(
    coeffs: MatrixPolyCoefficients, order: int
) -> MatrixSeries:
    """R_0..R_order from the fundamental recursion.

    LEFT: n R_n = sum_j A_j R_{n-1-j}; RIGHT multiplies the A_j from the
    right instead.  Coefficients beyond the stored degree are zero, so the
    inner sum truncates at min(p, n-1).
    """
    stack = _expand(coeffs.stack, coeffs.orientation, np.eye(coeffs.dim), order)
    stack.setflags(write=False)
    return MatrixSeries(stack)


def _expand(
    mats: np.ndarray, orientation: Orientation, start: np.ndarray, order: int
) -> np.ndarray:
    """T_0 = start and n T_n = sum_j A_j T_{n-1-j} (RIGHT: T_{n-1-j} A_j) as one stack.

    mats is the stack A_0..A_p.  The recursion is linear, so it runs from
    any start block: the identity gives the series terms R_n.  A
    (p+1, S, d, d) family with a (S, d, d) start expands S families at
    once; each one's products and sums are those of its own expansion, so
    the bits are too.  A stack over MAX_DOUBLES doubles, then a bad order
    (_check_order), is refused before the stack is allocated.
    """
    left = orientation is Orientation.LEFT
    degree = len(mats) - 1
    _refuse_terms(order, (order + 1) * start.size)
    _check_order(order, degree + 1)
    # Lists of views: a list lookup costs less than indexing the array.
    mats = list(mats)
    stack = np.zeros((order + 1, *start.shape))
    terms = list(stack)
    terms[0] += start
    for n in range(1, order + 1):
        acc = terms[n]
        for j in range(min(degree, n - 1) + 1):
            if left:
                acc += mats[j] @ terms[n - 1 - j]
            else:
                acc += terms[n - 1 - j] @ mats[j]
        acc /= n
    return stack


@np.errstate(over="ignore", invalid="ignore")
def compute_coefficients_explicit(
    coeffs: MatrixPolyCoefficients, n: int
) -> np.ndarray:
    """The single coefficient R_n from the explicit weighted-product formula.

    R_n = sum over q and over multi-indices m in the restricted (n, q, p) set
    of pi(m) * A_{m_1} ... A_{m_{n-q}}, with the product order reversed for
    RIGHT orientation.  Shares no code path with the recursion, which is the
    point: the two must agree to float accuracy.

    The words of a run of consecutive q grow together, a letter at a time in
    evaluation order (m for LEFT, m reversed for RIGHT; see _word_levels):
    each distinct prefix product is formed once, by one batched matmul of
    its parent prefix and its last letter, associating left to right as a
    word-by-word loop does.  A word is complete at the level of its length
    n - q; its product goes straight into the run's row for it.  Each word's
    weight is 1 / den for its exact integer denominator, the correctly
    rounded float(pi(m)).  The weighted products are added one by one onto
    the running total, q ascending and m lexicographic within q, by one
    np.add.accumulate a run, which sums sequentially (np.sum may sum
    pairwise and change the last bits).  No partial sum is shared between
    words.  A degree-0 family has the one word A_0^n, weighted the same way:
    (1 / n!) * A_0^n.  Past n = 170 the weight 1 / n! is subnormal or 0,
    which would give a wrong 0, or NaN where A_0^n overflows, so such an
    order is refused.  A word's product is formed before it is weighted, so
    it can overflow where R_n is finite: a result that is not finite is
    refused, with no numpy warning.

    A run grows while its words times d^2 fit in _BLOCK_DOUBLES; a q with
    more words than that is a run of its own.  So no run holds more than the
    larger of that budget and one q's prefix tree: peak memory is set by the
    largest q, its word count times d^2 doubles in about three arrays at
    once.  A call with p = 1 and d = 4 raised peak RSS by 63-66 MB at n = 27
    and by 161-172 MB at n = 29 (832 040 words), either orientation.  Refuses
    to run when the number of products exceeds EXPLICIT_TERM_BUDGET, which
    bounds that count only, not the memory.
    """
    if n < 1:
        raise ValueError(f"coefficient order must be >= 1, got {n}")
    mats = coeffs.stack
    p = coeffs.degree
    if p == 0:
        weight = 1 / math.factorial(n)
        if weight < sys.float_info.min:
            raise ValueError(
                f"explicit coefficient of order {n} of a degree-0 family needs the weight "
                f"1/{n}!, below the normal float range; the highest such order is 170"
            )
        total, counts = weight * np.linalg.matrix_power(mats[0], n), []
    else:
        counts = [_bounded_count(n - q, q, p) for q in range(max_total_index(n, p) + 1)]
        what = f"explicit coefficient of order {n}"
        _refuse(what, sum(counts), "weighted products", EXPLICIT_TERM_BUDGET)
        total = np.zeros((coeffs.dim, coeffs.dim))
    left = coeffs.orientation is Orientation.LEFT
    most = _BLOCK_DOUBLES // total.size
    lo = 0
    while lo < len(counts):
        hi = lo + 1
        while hi < len(counts) and sum(counts[lo : hi + 1]) <= most:
            hi += 1
        # Row 0 is the running total, then the words of q = lo, lo + 1, ...:
        # row i of the accumulation is that total plus the first i weighted
        # products, added in order.
        ends = np.cumsum([1, *counts[lo:hi]]).tolist()
        terms = np.empty((ends[-1], *total.shape))
        terms[0] = total
        products = None
        levels = _word_levels(n, lo, hi - 1, p, left)
        for k, (more, (parent, letter, den)) in enumerate(levels, start=1):
            if len(den):
                q = n - k
                rows = terms[ends[q - lo] : ends[q - lo + 1]]
                _extend(mats, products, parent, letter, out=rows)
                rows *= (1 / den).astype(float, copy=False)[:, None, None]
            products = _extend(mats, products, *more)
        # a copy, so that the stack of this run is freed
        total = np.add.accumulate(terms, axis=0, out=terms)[-1].copy()
        lo = hi
    if not np.isfinite(total).all():
        raise ValueError(f"explicit coefficient of order {n}: a word product left the float range")
    return total


def _extend(mats, products, parent, letter, out=None):
    """Each prefix's product times its last letter; the letters alone at the first level."""
    if products is None:
        return np.take(mats, letter, axis=0, out=out)
    return np.matmul(products[parent], mats[letter], out=out)


def _word_levels(n: int, lo: int, hi: int, p: int, left: bool):
    """The evaluation-order words of the restricted (n, q, p) sets, lo <= q <= hi, as one tree.

    Yields, for k = 1..n-lo, the k-letter prefixes of those words in two
    groups of flat arrays: the open ones, (parent, letter), and the complete
    words of length k, whose q is n - k, as (parent, letter, den).  A parent
    is an index among the open (k-1)-letter prefixes; den is the exact
    integer product of the word's weight factors, the denominator of
    pi_coefficient.  Those factors are distinct integers in [1, n], so every
    partial product is at most n!: while n! <= 2**53 den is a float64 array,
    every product an exact float integer, and 1 / den the correctly rounded
    quotient Python's int division gives; past that it is an object array of
    Python ints.

    A prefix's composition sum s is the sum of (letter + 1) over its letters,
    so a word is complete at s = n, and a letter's weight factor depends on
    its prefix alone: n - s before the letter for LEFT (the word is m; this
    is the suffix sum of m from that letter plus the letters left), s after
    it for RIGHT (the word is m reversed).  A prefix is kept only while some
    completion of total length n - hi .. n - lo exists: each further letter
    adds 1 to p + 1 to s.  Complete words are not extended.

    Each q's words come in m's lexicographic order.  LEFT orders each level
    by (parent, letter), which is lexicographic in the word; RIGHT by
    (letter, parent), which compares words from their last letter back, and
    so m from its first letter on.
    """
    shortest, longest = n - hi, n - lo
    rests = np.full(1, n)  # n - s of each open prefix
    den = np.ones(1, dtype=float if math.factorial(n) <= 2**53 else object)
    for k in range(1, longest + 1):
        grid = np.arange(len(rests) * (p + 1))
        if left:
            parent, letter = np.divmod(grid, p + 1)
        else:
            letter, parent = np.divmod(grid, len(rests))
        before = rests[parent]
        rest = before - letter - 1
        # the rest of s must be made up by 0 .. longest - k more letters,
        # and by at least shortest - k of them
        keep = (rest >= max(0, shortest - k)) & (rest <= (p + 1) * (longest - k))
        parent, letter, before, rest = parent[keep], letter[keep], before[keep], rest[keep]
        den = den[parent] * (before if left else n - rest)
        done = rest == 0
        more = ~done
        yield (parent[more], letter[more]), (parent[done], letter[done], den[done])
        rests, den = rest[more], den[more]


def tail_bound(coeffs: MatrixPolyCoefficients, order: int, t: float) -> float:
    """Bound on ||R(t) - compute_coefficients(coeffs, order).value_at(t)||, orientation norm.

    _local_bound of the family as given (a shift to 0, exact): the tail and the
    recursion's and Horner's rounding.  Finite unless the exponential overflows.
    """
    _check_order(order, coeffs.degree + 1)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    # A norm that overflows is inf, and so is the bound: no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norm_bounds(coeffs.stack, coeffs.orientation)
    powers = _powers([0.0], coeffs.degree)
    return _local_bound(norms[None], norms.tolist(), powers, coeffs.dim, order, [t])[0]


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), rounded up: n roundings err by a factor 1 +- gamma_n."""
    return math.nextafter(n * _U / (1.0 - n * _U), math.inf)


def _up(x, ops: int):
    """Upper bound on the exact value of a float x reached from nonnegative terms in ops roundings.

    x is that value times 1 + theta_ops; the factor 1 + gamma_(2 ops + 4)
    covers it and the two roundings of this product.
    """
    return x * (1.0 + _gamma(2 * ops + 4))


def _norm_bounds(mats: np.ndarray, orientation: Orientation) -> np.ndarray:
    """_norms of a (..., d, d) stack rounded up by gamma_d, which covers their d-term sums."""
    return _up(_norms(mats, orientation), mats.shape[-1])


def _shift_rounding(norms: list[float], powers: np.ndarray) -> np.ndarray:
    """Bounds rho[s, j] on ||A~_j - A_j(t0)||, the rounding of _shift to an origin t0.

    norms[k] >= ||A_k|| and row s of the _powers table powers is that of
    the origin t0.  A term comb(k, j) t0^(k-j) A_k of A~_j takes at most
    p + 4 roundings (the power within an ulp, two products, p - j sums), so
    entrywise |A~_j - A_j(t0)| <= gamma_(p+4)
    sum_k comb(k, j) |t0|^(k-j) |A_k|.  That sum is the _shift of the norms,
    as 1 x 1 matrices, by the table's absolute values, the powers of |t0|
    (Python takes a negative float's integer power as that of its absolute
    value, negated when odd): the same products summed in the same order of
    k, so each row has the bits of its origin's sums alone.  At t0 = 0, and
    for A~_p, the shift adds zeros to one exact term: rho = 0.
    """
    p = len(norms) - 1
    weights = np.abs(powers)
    sums = _shift(np.array(norms)[:, None, None], weights)[:, :, 0, 0].T
    rho = _up(_gamma(p + 4) * sums, p + 5)
    rho[:, p] = 0.0
    if p:
        rho[weights[:, 1] == 0.0] = 0.0  # column 1 is |t0| itself
    return rho


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _primed_norms(norms: np.ndarray, unshifted, powers: np.ndarray, dim: int) -> np.ndarray:
    """a'_j = a_j (1 + gamma_(dim(p+1)+2)) + rho_j, rounded up, for the (S, p+1) norms a.

    rho is the _shift_rounding of unshifted at the origins of the _powers
    table powers.  dim is the most products in one entry of a term times one
    coefficient: d for dense d x d matrices, 3 for tridiagonal ones.  An entry
    of a recursion term sums at most dim(p+1) products, within gamma_(dim(p+1))
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section
    3.1); the slack also covers the division by n, and _up(., 3) a'_j itself.
    """
    slack = 1.0 + _gamma(dim * norms.shape[1] + 2)
    return _up(norms * slack + _shift_rounding(unshifted, powers), 3)


def _shrunk_partial_sum(norms: np.ndarray, order: int, h: np.ndarray) -> np.ndarray:
    """sum_(n<=N) r_n h^n of the scalar series r of each row of norms, shrunk below its value.

    The float sum is within K = N(p + 4) roundings (p + 2 an order in r, 2N
    in Horner) of the exact sum of the same floats; 1 - gamma_(K+2) also
    covers this product.
    """
    partial = _horner(scalar_coefficients(norms.T, order), h)
    return partial * (1.0 - _gamma(order * (norms.shape[1] + 3) + 2))


def _local_bound(
    norms: np.ndarray, unshifted: list[float], powers: np.ndarray, dim: int, order: int,
    hs: list[float],
) -> list[float]:
    """Bounds on ||S - R(h)||, one per row: the computed local series S against the exact R.

    Row s of the (S, p+1) array norms bounds the step [t0, t0 + h] with
    h = hs[s] and t0 the origin of row s of the _powers table powers.  S is
    the order-N series of A~_0..A~_p, the float _shift to t0 of a family
    whose coefficient norms are at most unshifted, summed by Horner at h,
    and norms[s, j] >= ||A~_j||; R solves the family shifted exactly.  With
    a_j = norms[s, j] and a' from _primed_norms, the scalar series r of a
    and r' of a' (scalar_coefficients) give, by induction on the recursion,
    ||T~_n|| <= r'_n, ||T_n|| <= r'_n and ||T~_n - T_n|| <= r'_n - r_n for
    the computed and exact terms.  Horner adds at most
    gamma_2N sum ||T~_n|| h^n (Higham, section 5.1).  The r'_n h^n are
    positive and sum to exp(integral_0^h a'), so the tail, all rounding and
    the shift's together give

        ||S - R(h)|| <= (1 + gamma_(2N+1)) exp(integral_0^h a') - sum_(n<=N) r_n h^n,

    each side rounded outward, the partial sum by _shrunk_partial_sum.
    Finite for every h; inf only where the exponential or a term of r
    overflows.  A zero family's series is exactly I, with bound 0.
    Underflow is left out: a nonzero bound is at least gamma_(2N+1), far
    above the absolute error of a subnormal result.

    The rows are stacked, each float operation in the order a one-row call
    runs it, so each row's bound has that call's bits.  Only exp runs per
    row, as math.exp: numpy's vectorised exp is not promised within the one
    ulp the rounding model assumes.  A call costs about 0.15 ms at order 30
    however few rows it has, so _step_grid stacks many rows a call.
    """
    p = norms.shape[1] - 1
    h = np.array(hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        primed = _primed_norms(norms, unshifted, powers, dim)
        exponent, power = np.zeros(len(h)), h
        for j, aj in enumerate(primed.T):
            # A zero coefficient adds nothing, even where h^(j+1) overflows.
            exponent = np.where(aj != 0.0, exponent + aj * power / (j + 1), exponent)
            power = power * h
        growth = [_exp_or_inf(x) for x in _up(exponent, p + 3).tolist()]
        growth = _up(np.array(growth), 2)  # exp is within an ulp
        total = _up(growth * (1.0 + _gamma(2 * order + 1)), 2)
        partial = _shrunk_partial_sum(norms, order, h)
        # An overflow, in the exponential or in r, loses the row's bound.
        finite = (partial <= total) & (total < math.inf)
        bounds = np.where(finite, np.nextafter(total - partial, math.inf), math.inf)
    return np.where(primed.any(axis=1), bounds, 0.0).tolist()


def residual(
    coeffs: MatrixPolyCoefficients, series: MatrixSeries, t: float, h: float
) -> float:
    """Central-difference defect ||(R(t+h) - R(t-h)) / 2h - A(t) R(t)||.

    The product A(t) R(t) is taken on the orientation side and the defect is
    measured in the orientation norm.  Small residual at many t is evidence
    the truncated series actually solves the equation there.  A time where
    the series or the defect overflows raises ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if not math.isfinite(h) or h <= 0:
        raise ValueError(f"finite-difference step must be finite and > 0, got {h}")
    return _defect(coeffs, series.value_at, t, h)


def _defect(coeffs: MatrixPolyCoefficients, value_at, t: float, h: float) -> float:
    # An overflow anywhere below leaves an inf or nan in the defect, which is
    # refused with one error naming the time; numpy's warnings would only
    # repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        derivative = (value_at(t + h) - value_at(t - h)) / (2.0 * h)
        value = value_at(t)
        at = coeffs.value_at(t)
        if coeffs.orientation is Orientation.LEFT:
            defect = derivative - at @ value
        else:
            defect = derivative - value @ at
        norm = float(_norms(defect, coeffs.orientation))
    if not math.isfinite(norm):
        raise ValueError(f"the defect at time {t} overflows")
    return norm


def naive_exponential(
    coeffs: MatrixPolyCoefficients, t: float, terms: int = 40
) -> np.ndarray:
    """Taylor partial sum of exp(B(t)) with B(t) = sum_j A_j t^(j+1) / (j+1).

    This is the would-be closed form obtained by exponentiating the
    antiderivative of A.  It solves the evolution equation only when the
    coefficient family commutes; it exists here as a diagnostic for how wrong
    that shortcut is, not as a solver.  More terms than
    scalar.MAX_SERIES_PRODUCTS, one matrix product each, are refused first.
    """
    if terms < 1:
        raise ValueError(f"need at least 1 Taylor term, got {terms}")
    _refuse(f"exp(B(t)) to {terms} Taylor terms", terms, "matrix products", MAX_SERIES_PRODUCTS)
    dim = coeffs.dim
    b = np.zeros((dim, dim))
    for j, mat in enumerate(coeffs.stack):
        try:
            power = t ** (j + 1)
        except OverflowError:
            raise ValueError(f"time {t} is too large: t^{j + 1} overflows") from None
        b += mat * (power / (j + 1))
    out = np.eye(dim)
    term = np.eye(dim)
    for k in range(1, terms):
        term = term @ b / k
        out = out + term
    return out


def recenter(coeffs: MatrixPolyCoefficients, t0: float) -> MatrixPolyCoefficients:
    """Coefficients of s -> A(t0 + s): the binomial Taylor shift.

    Same degree, same orientation; exact apart from float rounding in the
    powers of t0.  An origin whose shifted family overflows raises the
    constructor's ValueError.
    """
    shifted = _shift(coeffs.stack, _powers([t0], coeffs.degree))[:, 0]
    shifted.setflags(write=False)
    return MatrixPolyCoefficients(shifted, coeffs.orientation)


def _powers(origins, p: int) -> np.ndarray:
    """The (S, p+1) table of the powers t_s ** e, e = 0..p, of the S origins t_s.

    The powers are Python floats, not numpy powers or ints, so each origin
    gets the bits of its own powers; an origin whose power overflows gets a
    row of inf and no numpy warning.  A solve makes one table for all its
    steps, and _shift and _shift_rounding read its rows.
    """
    powers = []
    for t0 in origins:
        try:
            t0 = float(t0)
            powers.append([t0**e for e in range(p + 1)])
        except OverflowError:
            powers.append([math.inf] * (p + 1))
    return np.array(powers)


def _shift(mats: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The binomial shift of the stack A_0..A_p to the S origins t_s, as (p+1, S, d, d).

    Entry [j, s] is the degree-j coefficient of u -> A(t_s + u): the sum
    over k >= j, in increasing k, of the double comb(k, j) t_s^(k-j) times
    A_k, the power read from row s of the _powers table powers.  A solve
    passes its one table, sliced to the origins at hand.  An origin whose
    power overflows has a row of inf powers, so its shift is not finite,
    with no numpy warning.
    The sums run entrywise, so each A_k may be any 2-D array: the (3, n)
    diagonals of a tridiagonal matrix shift to the same bits as its dense
    (n, n) form at every entry they share.
    """
    p = len(mats) - 1
    shifted = np.zeros((p + 1, len(powers), *mats.shape[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, acc in enumerate(shifted):
            for k in range(j, p + 1):
                acc += (math.comb(k, j) * powers[:, k - j])[:, None, None] * mats[k]
    return shifted


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A stepped solve, one row per grid time, as read-only arrays.

    times is the (S+1,) grid, values[i] the (d, d) propagator R(times[i])
    and tail_bounds[i] the certified bound on its error, in the
    orientation's norm.
    """

    times: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray


def _grid(t_final: float, step: float) -> tuple[list[float], list[float]]:
    """The grid times 0, step, 2 step, ..., t_final of a stepped solve, and its step lengths.

    When t_final is a multiple of step up to a few ulps, the grid has
    round(t_final / step) steps and ends exactly at t_final, with no sliver
    step; otherwise a final partial step covers t_final.  A grid of more than
    MAX_STEPS steps is refused before any work.  hs[k] is times[k + 1] -
    times[k], exact by Sterbenz: after the first step, which starts at 0,
    each step ends at most twice as late as it starts.
    """
    if not math.isfinite(t_final) or t_final < 0:
        raise ValueError(f"time must be finite and >= 0, got {t_final}")
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"step must be finite and > 0, got {step}")
    ratio = t_final / step
    most = math.ceil(ratio) if ratio < math.inf else ratio  # a subnormal step gives inf
    _refuse(f"final time {t_final} over step {step}", most, "steps", MAX_STEPS)
    steps = round(ratio)
    if abs(steps * step - t_final) > 4 * math.ulp(t_final):
        steps = most
    times = [0.0] + [k * step for k in range(1, steps)] + [t_final] if steps else [0.0]
    return times, [t_next - t_prev for t_prev, t_next in zip(times, times[1:])]


def _refuse_terms(order: int, doubles: int) -> None:
    """Refuse an expansion to order whose term stack would hold over MAX_DOUBLES doubles."""
    _refuse(f"series order {order}", doubles, "doubles of terms", MAX_DOUBLES)


def _plan(what: str, order: int, t_final: float, step: float, shape, row, fixed, terms):
    """Check a stepped solve and count its peak doubles, before its solver allocates anything.

    shape is the family's, (p+1, d, d) or (p+1, 3, n): one step's shift holds
    shift = prod(shape) doubles.  A row holds row doubles, the solver's own
    arrays fixed, and one step's _expand term stack terms (0 for solve_bdp).
    Refused in order: such a stack over MAX_DOUBLES, in _expand's words; the
    order (_check_order); the grid (_grid).  A block holds _BLOCK_DOUBLES //
    max(terms, shift) steps, one _local_bound call _BLOCK_DOUBLES // (order
    + 1), each at least one.  The count: the rows and fixed; a block at 9/8
    terms (their finiteness check) + 3 shift (the norms' or a copy's
    temporary) a step, and one more term stack (an autonomous block's one
    expansion); a bound call's series and their stack, 2 (order + 1) a step,
    and 24 (order + 1) of numpy overhead; 32 a step of Python floats and
    arrays; 1024 more.  A count over MAX_DOUBLES is refused.  Returns the
    plan, (times, hs, order, block, chunk).
    """
    shift = math.prod(shape)
    _refuse_terms(order, terms)
    _check_order(order, shape[0])
    times, hs = _grid(t_final, step)
    steps = len(hs)
    block = max(1, _BLOCK_DOUBLES // max(terms, shift))
    chunk = max(1, _BLOCK_DOUBLES // (order + 1))
    peak = (steps + 1) * row + fixed + min(steps, block) * (terms * 9 // 8 + 3 * shift) + terms
    peak += (2 * min(steps, chunk) + 24) * (order + 1) + 32 * steps + 1024
    _refuse(f"{what} over {steps} steps", peak, "doubles", MAX_DOUBLES)
    return times, hs, order, block, chunk


def _step_grid(plan, family, norm_bounds, dim: int, start, advance):
    """The stepping loop of both certified solvers: the rows and the local bound of every step.

    plan is _plan's, which counted what this holds: the rows, a block, a
    bound chunk and a step's bookkeeping.  family is A_0..A_p, (p+1, d, d)
    or the (p+1, 3, n) diagonals of tridiagonal matrices; norm_bounds maps
    it or a shift of it to _local_bound's (..., p+1) norm rows.  The rows
    are one (S+1, *start.shape) stack, row 0 start.  One _shift call moves
    the family to a block's step starts, dropped before the next block's,
    and one norm_bounds call bounds it; advance(rows, i, shifted, block_hs),
    i the block's first step, writes its rows and returns whether each step
    is finite, and the first that is not is refused.  _local_bound then
    bounds a chunk of steps a call, with one-row calls' bits.  All runs under
    one np.errstate: overflow shows as that refusal or as inf, never a numpy
    warning.  Returns the read-only times and rows, and the local bounds.
    """
    times, hs, order, block, chunk = plan
    rows = np.empty((len(times), *np.shape(start)))
    rows[0] = start
    powers = _powers(times[:-1], len(family) - 1)
    norms = np.empty((len(hs), len(family)))
    with np.errstate(over="ignore", invalid="ignore"):
        unshifted = norm_bounds(family).tolist()
        for i in range(0, len(hs), block):
            span = slice(i, i + block)
            shifted = _shift(family, powers[span])
            norms[span] = norm_bounds(shifted)
            finite = advance(rows, i, shifted, hs[span])
            if not all(finite):
                t0 = times[i + finite.index(False)]
                raise ValueError(f"the series overflows on the step from t = {t0}")
            del shifted  # before the next block's is made
    bounds = []
    for i in range(0, len(hs), chunk):
        span = slice(i, i + chunk)
        bounds += _local_bound(norms[span], unshifted, powers[span], dim, order, hs[span])
    rows.setflags(write=False)
    return _frozen(times), rows, bounds


def solve_stepped(
    coeffs: MatrixPolyCoefficients, t_final: float, step: float, order: int
) -> Trajectory:
    """R(t) on the grid {0, step, 2 step, ..., t_final}, one local expansion per step.

    Each step recenters the coefficients at its start, expands to the given
    order and sums the local series at the step length; _step_grid runs the
    steps, and _local_propagators expands a block as one stack, bit for bit
    what recenter, compute_coefficients and value_at give step by step.  The
    propagators are composed on the orientation side, in place into the one
    (S+1, d, d) stack of values.  The bound carries the local bounds through
    the products, e_new = e_loc (||R_prev|| + e_prev) + ||R_loc|| (e_prev +
    gamma_d ||R_prev||), the last term the product's own rounding, so it
    certifies the composed float value.  The first step's bound is
    tail_bound over that step, bit for bit.  _plan checks the solve first,
    the lone t = 0 point too, counting the values and a block's series terms.
    """
    dim, orientation = coeffs.dim, coeffs.orientation
    what, terms = f"{dim}x{dim} propagators", (order + 1) * dim * dim
    plan = _plan(what, order, t_final, step, coeffs.stack.shape, dim * dim, 0, terms)
    left = orientation is Orientation.LEFT
    norms_loc, norms_prev = [], []

    def advance(values, i, shifted, block_hs):
        r_locs, finite = _local_propagators(coeffs, shifted, block_hs, order)
        for k, r_loc in enumerate(r_locs, start=i):
            # R(0) = I exactly: no product, and no inf * 0 from an overflowed step.
            if k == 0:
                values[1] = r_loc
            else:
                np.matmul(*((r_loc, values[k]) if left else (values[k], r_loc)), out=values[k + 1])
        norms_loc.extend(_norm_bounds(r_locs, orientation).tolist())
        norms_prev.extend(_norm_bounds(values[i : i + len(r_locs)], orientation).tolist())
        return finite

    times, values, bounds = _step_grid(
        plan, coeffs.stack, lambda m: _norm_bounds(m, orientation).T, dim, np.eye(dim), advance
    )
    g_dim, six = _gamma(dim), _up(1.0, 6)  # _up(x, 6) is x * six
    errs = [0.0, *bounds[:1]]
    err = errs[-1]
    for bound_loc, norm_loc, norm_prev in zip(bounds[1:], norms_loc[1:], norms_prev[1:]):
        err = bound_loc * (norm_prev + err) + norm_loc * (err + g_dim * norm_prev)
        # Six roundings; a NaN norm or inf * 0 means an overflow.
        err = math.inf if math.isnan(err) else err * six
        errs.append(err)
    return Trajectory(times, values, _frozen(errs))


def _local_propagators(
    coeffs: MatrixPolyCoefficients, shifted: np.ndarray, hs: list[float], order: int
) -> tuple[np.ndarray, list[bool]]:
    """Local propagators of a block of steps, stacked, and whether each step is finite.

    shifted is the (p+1, S, d, d) shift of the family to the steps' starts.
    Returns the C-contiguous (S, d, d) values of the order-N local series at
    the step lengths hs, and per step whether its shift (an overflowed power
    of t0 included) and series are finite.  An autonomous family, every A_j
    with j >= 1 zero (degree 0 included), shifts to the same bits at every
    origin whose shift is finite: t0 >= 0, so each A_j (j >= 1) adds zeros of
    its own entries' signs, which leave the sums unchanged.  Its block is
    expanded once, from the first step's shift, and that series serves every step.
    """
    dim, steps = coeffs.dim, len(hs)
    if coeffs.stack[1:].any():
        start = np.broadcast_to(np.eye(dim), (steps, dim, dim))
        terms = _expand(shifted, coeffs.orientation, start, order)
    else:
        terms = _expand(shifted[:, :1], coeffs.orientation, np.eye(dim)[None], order)
        # A copy, not a broadcast view: Horner's values, and so the order
        # in which their norms are summed, keep the stacked path's layout.
        terms = np.repeat(terms, steps, axis=1)
    finite = np.isfinite(shifted).all(axis=(0, 2, 3)) & np.isfinite(terms).all(axis=(0, 2, 3))
    return _horner(terms, np.array(hs)[:, None, None]), finite.tolist()


def counterexample_coefficients() -> MatrixPolyCoefficients:
    """The 2x2 family A(t) = [[0, 1], [t, 0]] that breaks the exponential shortcut.

    Here B(t) = [[0, t], [t^2/2, 0]] fails to commute with B'(t) = A(t), so
    exp(B(t)) does not solve dR/dt = A(t) R(t); its (1,1) entry starts
    1 + t^3/4 + ... while the true solution needs 1 + t^3/6 + ....
    """
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return MatrixPolyCoefficients((a0, a1), Orientation.LEFT)


@dataclass(frozen=True)
class ResidualComparison:
    """Residuals of the series solution and the exponential shortcut at one time."""

    t: float
    series_residual: float
    exponential_residual: float

    @property
    def ratio(self) -> float:
        if self.series_residual == 0.0:
            return math.inf
        return self.exponential_residual / self.series_residual


def counterexample_report(
    times: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    order: int = 30,
    h: float = 1e-4,
    exp_terms: int = 40,
) -> list[ResidualComparison]:
    """Residual comparison on a time grid for the counterexample family.

    The series residual uses the order-N Maclaurin solution; the exponential
    residual applies the same central-difference defect to the truncated
    exp(B(t)) candidate.  Each time evaluates both three times, so the report
    forms about 3 len(times) (exp_terms + order) matrix products; more than
    scalar.MAX_SERIES_PRODUCTS are refused before any.
    """
    what = f"counterexample with {exp_terms} Taylor terms, order {order} and {len(times)} times"
    _refuse(what, 3 * len(times) * (exp_terms + order), "matrix products", MAX_SERIES_PRODUCTS)
    coeffs = counterexample_coefficients()
    series = compute_coefficients(coeffs, order)
    rows = []
    for t in times:
        series_res = residual(coeffs, series, t, h)
        exp_res = _defect(coeffs, lambda s: naive_exponential(coeffs, s, exp_terms), t, h)
        rows.append(ResidualComparison(t, series_res, exp_res))
    return rows
