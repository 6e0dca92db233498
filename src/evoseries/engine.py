"""Series solver for dR/dt = A(t) R(t) with matrix-polynomial A(t).

Coefficients R_n of R(t) = I + R_1 t + ... + R_N t^N come from two
independent routes: the fundamental recursion
n R_n = A_0 R_{n-1} + A_1 R_{n-2} + ... (products taken on the orientation
side), and the explicit formula summing weighted coefficient products over
index sets.  A local expansion's error, rounding included, is certified by
the scalar majorant exp(integral of the coefficient norms), finite for every
step; longer horizons re-expand at shifted origins and compose the per-step
propagators, adding the rounding of each product to the bound.  The majorant
runs stacked: one array pass bounds every step of a block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    enumerate_restricted_index_set,
    max_total_index,
    pi_coefficient,
    term_count,
)
from .scalar import scalar_coefficients

__all__ = [
    "Orientation",
    "TermBudgetError",
    "MatrixPolynomial",
    "MatrixPolyCoefficients",
    "MatrixSeries",
    "SolveStep",
    "ResidualComparison",
    "operator_norm",
    "compute_coefficients",
    "compute_coefficients_explicit",
    "evaluate",
    "tail_bound",
    "residual",
    "naive_exponential",
    "recenter",
    "solve_stepped",
    "counterexample_coefficients",
    "counterexample_report",
]

EXPLICIT_TERM_BUDGET = 1_000_000
# Largest grid solve_stepped accepts: a million local expansions already take
# minutes even for 2x2 families, so a larger count is a mistaken step.
MAX_STEPS = 1_000_000
# Most doubles in the series terms of one block of solve_stepped, stacked
# over its steps: (order + 1) * steps * d * d.  Enough steps to spread
# numpy's per-call cost over many, few enough that a long grid of large
# matrices does not raise the peak memory.
_BLOCK_DOUBLES = 2**16
# Unit roundoff of a double: a rounded operation has relative error at most _U.
_U = 2.0**-53


class Orientation(enum.Enum):
    """Which side A(t) multiplies on: LEFT is dR/dt = A R, RIGHT is dR/dt = R A."""

    LEFT = "left"
    RIGHT = "right"


class TermBudgetError(RuntimeError):
    """Raised when an explicit expansion would enumerate too many products."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(
            f"explicit expansion needs {count} weighted products, "
            f"over the budget of {budget}"
        )


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

    Overflow gives inf entries without a floating-point warning: a caller
    that certifies the value reports the lost certificate through its bound.
    """
    acc = np.array(stack[-1])
    with np.errstate(over="ignore"):
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

    def min_degree(self) -> int | None:
        """Lowest degree with a nonzero coefficient, or None for the zero polynomial."""
        nonzero = np.flatnonzero(self.stack.any(axis=(1, 2)))
        return int(nonzero[0]) if nonzero.size else None

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

    @property
    def matrices(self) -> np.ndarray:
        """The read-only (p+1, d, d) stack of A_0..A_p."""
        return self.stack


def operator_norm(mat: np.ndarray, orientation: Orientation) -> float:
    """Operator norm on the l1 side matching the orientation.

    LEFT acts on column vectors, so the induced norm is the max absolute
    column sum; RIGHT acts on row vectors, max absolute row sum.
    """
    return float(_norms(np.asarray(mat, dtype=float), orientation))


def _norms(mats: np.ndarray, orientation: Orientation) -> np.ndarray:
    """operator_norm of each matrix of a (..., d, d) stack, as an array of the leading shape."""
    axis = -2 if orientation is Orientation.LEFT else -1
    return np.abs(mats).sum(axis=axis).max(axis=-1, initial=0.0)


@dataclass(frozen=True, eq=False)
class MatrixSeries(MatrixPolynomial):
    """Terms R_0 = I, R_1, ..., R_N of the series solution."""

    orientation: Orientation

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
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    stack = _expand(coeffs.matrices, coeffs.orientation, np.eye(coeffs.dim), order)
    stack.setflags(write=False)
    return MatrixSeries(stack, coeffs.orientation)


def _expand(
    mats: np.ndarray, orientation: Orientation, start: np.ndarray, order: int
) -> np.ndarray:
    """T_0 = start and n T_n = sum_j A_j T_{n-1-j} (RIGHT: T_{n-1-j} A_j) as one stack.

    mats is the stack A_0..A_p.  The recursion is linear, so it runs from
    any start block: the identity gives the series terms R_n, and a row
    vector p RIGHT-oriented gives the terms p R_n of the distribution
    p R(t) without forming any R_n.  A (p+1, S, d, d) family with a
    (S, d, d) start expands S families at once; each one's products and
    sums are those of its own expansion, so the bits are too.
    """
    left = orientation is Orientation.LEFT
    degree = len(mats) - 1
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


def compute_coefficients_explicit(
    coeffs: MatrixPolyCoefficients, n: int
) -> np.ndarray:
    """The single coefficient R_n from the explicit weighted-product formula.

    R_n = sum over q and over multi-indices m in the restricted (n, q, p) set
    of pi(m) * A_{m_1} ... A_{m_{n-q}}, with the product order reversed for
    RIGHT orientation.  Shares no code path with the recursion, which is the
    point: the two must agree to float accuracy.

    Refuses to run when the number of products exceeds EXPLICIT_TERM_BUDGET.
    """
    if n < 1:
        raise ValueError(f"coefficient order must be >= 1, got {n}")
    # A list of views, as in compute_coefficients: the product loop indexes it
    # thousands of times, and a list lookup costs less than indexing the array.
    mats = list(coeffs.matrices)
    p = coeffs.degree
    if p == 0:
        return np.linalg.matrix_power(mats[0], n) / math.factorial(n)
    count = term_count(n, p)
    if count > EXPLICIT_TERM_BUDGET:
        raise TermBudgetError(count, EXPLICIT_TERM_BUDGET)
    left = coeffs.orientation is Orientation.LEFT
    total = np.zeros((coeffs.dim, coeffs.dim))
    for q in range(max_total_index(n, p) + 1):
        for m in enumerate_restricted_index_set(n, q, p):
            order = m if left else tuple(reversed(m))
            product = np.array(mats[order[0]])
            for idx in order[1:]:
                product = product @ mats[idx]
            total += float(pi_coefficient(m)) * product
    return total


def evaluate(series: MatrixSeries, t: float) -> np.ndarray:
    """Value of the truncated series at t, by Horner evaluation."""
    return series.value_at(t)


def tail_bound(coeffs: MatrixPolyCoefficients, order: int, t: float) -> float:
    """Bound on ||R(t) - evaluate(compute_coefficients(coeffs, order), t)||, orientation norm.

    _local_bound of the family as given (a shift to 0, exact): the tail and the
    recursion's and Horner's rounding.  Finite unless the exponential overflows.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    norms = _norm_bounds(coeffs.matrices, coeffs.orientation)
    return _local_bound(norms[None], norms.tolist(), [0.0], coeffs.dim, order, [t])[0]


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


def _shift_rounding(norms: list[float], starts: list[float]) -> np.ndarray:
    """Bounds rho[s, j] on ||A~_j - A_j(t0)||, the rounding of _shift to t0 = starts[s].

    norms[k] >= ||A_k||.  A term comb(k, j) t0^(k-j) A_k of A~_j takes at
    most p + 4 roundings (the power within an ulp, two products, p - j sums),
    so entrywise |A~_j - A_j(t0)| <= gamma_(p+4) sum_k comb(k, j) |t0|^(k-j) |A_k|.
    That sum is the _shift of the norms, as 1 x 1 matrices, to |t0|: the same
    products summed in the same order of k, so each row has the bits of its
    origin's sums alone.  At t0 = 0, and for A~_p, the shift adds zeros to
    one exact term: rho = 0.
    """
    p = len(norms) - 1
    sums = _shift(np.array(norms)[:, None, None], [abs(t0) for t0 in starts])[:, :, 0, 0].T
    rho = _up(_gamma(p + 4) * sums, p + 5)
    rho[:, p] = 0.0
    rho[np.array(starts) == 0.0] = 0.0
    return rho


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _local_bound(
    norms: np.ndarray, unshifted: list[float], starts: list[float], dim: int, order: int,
    hs: list[float],
) -> list[float]:
    """Bounds on ||S - R(h)||, one per row: the computed local series S against the exact R.

    Row s of the (S, p+1) array norms bounds the step [t0, t0 + h] with
    t0 = starts[s] and h = hs[s].  S is the order-N series of A~_0..A~_p,
    the float _shift to t0 of a family whose coefficient norms are at most
    unshifted, summed by Horner at h, and norms[s, j] >= ||A~_j||; R solves
    the family shifted exactly.  dim is the most products in one entry of a
    term times one coefficient: d for dense d x d matrices, 3 for
    tridiagonal ones of any size.  A sum of k products errs by at most
    gamma_k (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., section 3.1).  With a_j = norms[s, j], rho from _shift_rounding and
    a'_j = a_j (1 + gamma_(dim(p+1)+2)) + rho_j, the scalar series r of a and
    r' of a' (scalar_coefficients) give, by induction on the recursion, whose
    entries are sums of at most dim(p+1) products over n, ||T~_n|| <= r'_n,
    ||T_n|| <= r'_n and ||T~_n - T_n|| <= r'_n - r_n for the computed and
    exact terms.  Horner adds at most gamma_2N sum ||T~_n|| h^n (Higham,
    section 5.1).
    The r'_n h^n are positive and sum to exp(integral_0^h a'), so the tail,
    all rounding and the shift's together give

        ||S - R(h)|| <= (1 + gamma_(2N+1)) exp(integral_0^h a') - sum_(n<=N) r_n h^n,

    each side rounded outward.  Finite for every h; inf only where the
    exponential or a term of r overflows.  A zero family's series is exactly
    I, with bound 0.  Underflow is left out: a nonzero bound is at least
    gamma_(2N+1), far above the absolute error of a subnormal result.

    The rows are stacked: every float operation runs elementwise on arrays
    with a step axis (scalar_coefficients and Horner on the (p+1, S)
    transpose), in the order a single row's would, so each row's bound is
    bit for bit the one a one-row call gives.  Only exp runs per row, as
    math.exp: numpy's vectorised exp is not promised within the one ulp
    that the rounding model assumes.  At order 30 a call costs about
    0.15 ms however few rows it has, several times one row in plain Python,
    so a caller passes all the steps it has at once.
    """
    p = norms.shape[1] - 1
    slack = 1.0 + _gamma(dim * (p + 1) + 2)
    h = np.array(hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        primed = _up(norms * slack + _shift_rounding(unshifted, starts), 3)
        exponent, power = np.zeros(len(h)), h
        for j, aj in enumerate(primed.T):
            # A zero coefficient adds nothing, even where h^(j+1) overflows.
            exponent = np.where(aj != 0.0, exponent + aj * power / (j + 1), exponent)
            power = power * h
        growth = [_exp_or_inf(x) for x in _up(exponent, p + 3).tolist()]
        growth = _up(np.array(growth), 2)  # exp is within an ulp
        total = _up(growth * (1.0 + _gamma(2 * order + 1)), 2)
        # The partial sum is within K = N(p + 4) roundings (p + 2 an order in r,
        # 2N in Horner) of its value; 1 - gamma_(K+2) also covers this product.
        partial = scalar_coefficients(norms.T, order).partial_sum(h)
        partial = partial * (1.0 - _gamma(order * (p + 4) + 2))
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
    return _defect(coeffs, lambda s: evaluate(series, s), t, h)


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
        norm = operator_norm(defect, coeffs.orientation)
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
    that shortcut is, not as a solver.
    """
    if terms < 1:
        raise ValueError(f"need at least 1 Taylor term, got {terms}")
    dim = coeffs.dim
    b = np.zeros((dim, dim))
    for j, mat in enumerate(coeffs.matrices):
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
    shifted = _shift(coeffs.matrices, [t0])[:, 0]
    shifted.setflags(write=False)
    return MatrixPolyCoefficients(shifted, coeffs.orientation)


def _shift(mats: np.ndarray, origins: list[float]) -> np.ndarray:
    """The binomial shift of the stack A_0..A_p to the S origins t_s, as (p+1, S, d, d).

    Entry [j, s] is the degree-j coefficient of u -> A(t_s + u): the sum
    over k >= j, in increasing k, of the double comb(k, j) t_s^(k-j) times
    A_k.  The powers t_s ** e are Python floats, not numpy powers or ints,
    so each origin gets the bits of its own shift; an origin whose power
    overflows gets a row of inf, so its shift is not finite, and no numpy
    warning.
    The sums run entrywise, so each A_k may be any 2-D array: the (3, n)
    diagonals of a tridiagonal matrix shift to the same bits as its dense
    (n, n) form at every entry they share.
    """
    p = len(mats) - 1
    shifted = np.zeros((p + 1, len(origins), *mats.shape[1:]))
    powers = []
    for t0 in origins:
        try:
            t0 = float(t0)
            powers.append([t0**e for e in range(p + 1)])
        except OverflowError:
            powers.append([math.inf] * (p + 1))
    weights = np.array(powers)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, acc in enumerate(shifted):
            for k in range(j, p + 1):
                acc += (math.comb(k, j) * weights[:, k - j])[:, None, None] * mats[k]
    return shifted


def _refuse_overflow(finite: list[bool], starts: list[float]) -> None:
    """The one refusal of both solvers: the first step s with finite[s] False, from starts[s]."""
    if not all(finite):
        t0 = starts[finite.index(False)]
        raise ValueError(f"the series overflows on the step from t = {t0}")


@dataclass(frozen=True, eq=False)
class SolveStep:
    """One grid point of a stepped solve: time, propagator, accumulated bound."""

    t: float
    value: np.ndarray
    tail_bound: float


def _step_ends(t_final: float, step: float) -> list[float]:
    """End times of the steps of the grid {0, step, 2 step, ..., t_final}.

    When t_final is a multiple of step up to a few ulps, the grid has
    round(t_final / step) steps and ends exactly at t_final, with no sliver
    step; otherwise a final partial step covers t_final.  A grid of more than
    MAX_STEPS steps is refused before any work.
    """
    if not math.isfinite(t_final) or t_final < 0:
        raise ValueError(f"time must be finite and >= 0, got {t_final}")
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if t_final / step > MAX_STEPS:
        raise ValueError(
            f"final time {t_final} over step {step} needs more than {MAX_STEPS} steps"
        )
    steps = round(t_final / step)
    if abs(steps * step - t_final) > 4 * math.ulp(t_final):
        steps = math.ceil(t_final / step)
    return [k * step for k in range(1, steps)] + [t_final] if steps else []


def solve_stepped(
    coeffs: MatrixPolyCoefficients, t_final: float, step: float, order: int
) -> list[SolveStep]:
    """R(t) on the grid {0, step, 2 step, ..., t_final}, one local expansion per step.

    Each step recenters the coefficients at the left endpoint, expands to the
    given order, advances by the step with the local series, and composes the
    propagators by multiplication on the orientation side.  The reported
    bound carries the local bounds (_local_bound, shift rounding included)
    through the products, e_new = e_loc (||R_prev|| + e_prev) +
    ||R_loc|| (e_prev + gamma_d ||R_prev||), the last term the product's own
    rounding, so it certifies the composed float value.  The first step's
    bound is tail_bound over that step, bit for bit.

    The local expansions of each block of consecutive steps, and their
    bounds, run as one stack (_local_propagators), bit for bit what
    recenter, compute_coefficients, evaluate and tail_bound's majorant give
    step by step.  Overflow shows as inf in the values and bounds (never a
    NaN bound), or, at the first step whose shifted family or series is not
    finite, as the ValueError "the series overflows on the step from t = t0",
    never as a numpy warning.

    The grid is _step_ends(t_final, step): no float sliver at its end, and
    at most MAX_STEPS steps, whose lengths t_next - t_prev are exact (Sterbenz).
    """
    ends = _step_ends(t_final, step)
    dim = coeffs.dim
    out = [SolveStep(0.0, _frozen(np.eye(dim)), 0.0)]
    if ends and order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    starts = [0.0, *ends[:-1]]
    hs = [t_next - t_prev for t_prev, t_next in zip(starts, ends)]
    per_block = max(1, _BLOCK_DOUBLES // max(1, (order + 1) * dim * dim))
    left = coeffs.orientation is Orientation.LEFT
    g_dim = _gamma(dim)
    current, err, norm_prev = None, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(ends), per_block):
            values, bounds = _local_propagators(
                coeffs, starts[i : i + per_block], hs[i : i + per_block], order
            )
            composed = np.empty_like(values)
            for r_loc, value in zip(values, composed):
                if current is None:
                    # R(0) = I exactly: no product, and no inf * 0 from an overflowed step.
                    value[...] = r_loc
                elif left:
                    np.matmul(r_loc, current, out=value)
                else:
                    np.matmul(current, r_loc, out=value)
                current = value
            composed.setflags(write=False)
            norms_loc = _norm_bounds(values, coeffs.orientation).tolist()
            norms = _norm_bounds(composed, coeffs.orientation).tolist()
            for s, bound_loc in enumerate(bounds):
                if i + s == 0:
                    err = bound_loc
                else:
                    err = bound_loc * (norm_prev + err) + norms_loc[s] * (err + g_dim * norm_prev)
                    # Six roundings; a NaN norm or inf * 0 means an overflow.
                    err = math.inf if math.isnan(err) else _up(err, 6)
                norm_prev = norms[s]
                out.append(SolveStep(ends[i + s], composed[s], err))
    return out


def _local_propagators(
    coeffs: MatrixPolyCoefficients, starts: list[float], hs: list[float], order: int
) -> tuple[np.ndarray, list[float]]:
    """Local propagators and their bounds on the steps [t0, t0 + h], stacked over steps.

    Returns the (S, d, d) values of the order-N local series at h and the S
    bounds of one _local_bound call, each with its own shift's rounding.
    The first step whose shifted family (an overflowed power of t0 included)
    or series is not finite is refused by _refuse_overflow.
    """
    dim = coeffs.dim
    shifted = _shift(coeffs.matrices, starts)
    start = np.broadcast_to(np.eye(dim), (len(starts), dim, dim))
    terms = _expand(shifted, coeffs.orientation, start, order)
    finite = np.isfinite(shifted).all(axis=(0, 2, 3)) & np.isfinite(terms).all(axis=(0, 2, 3))
    _refuse_overflow(finite.tolist(), starts)
    values = _horner(terms, np.array(hs)[:, None, None])
    unshifted = _norm_bounds(coeffs.matrices, coeffs.orientation).tolist()
    norms = _norm_bounds(shifted, coeffs.orientation).T
    return values, _local_bound(norms, unshifted, starts, dim, order, hs)


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
    exp(B(t)) candidate.
    """
    coeffs = counterexample_coefficients()
    series = compute_coefficients(coeffs, order)
    rows = []
    for t in times:
        series_res = residual(coeffs, series, t, h)
        exp_res = _defect(coeffs, lambda s: naive_exponential(coeffs, s, exp_terms), t, h)
        rows.append(ResidualComparison(t, series_res, exp_res))
    return rows
