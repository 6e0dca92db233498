"""Transient distributions of a birth-death chain with rates linear in time.

Birth rate lam_0 + lam_1 t and death rate mu_0 + mu_1 t give a generator
A(t) = A_0 + A_1 t, each A_i the tridiagonal generator built from one
(birth, death) rate pair on a truncated state space.  In the row-vector
convention distributions evolve as p(t) = p(0) R(t) with dR/dt = R(t) A(t),
so everything runs through the series engine with RIGHT orientation.

The distribution itself is carried from step to step: the recursion
n p_n = sum_j p_{n-1-j} A_j runs on the row vector, so no n x n propagator
is ever formed.  The generator is tridiagonal, so the family is carried as
its diagonals, one (p+1, 3, n) array: a step's shift, norms and recursion
cost O(order n), and the only n x n arrays of a solve are the dense family
it returns.

Truncating the state space loses probability mass.  The leakage column
records |1 - sum(p)| at each grid time; nothing is ever renormalized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import (
    MatrixPolyCoefficients,
    Orientation,
    _horner,
    _local_bound,
    _refuse_overflow,
    _shift,
    _step_ends,
    _up,
)

__all__ = [
    "Boundary",
    "BirthDeathSpec",
    "DistributionTrajectory",
    "StochasticityRow",
    "StochasticityReport",
    "build_generator",
    "solve_bdp",
    "stochasticity_report",
]


class Boundary(enum.Enum):
    """Treatment of the last retained state.

    ABSORB_LAST drops the outgoing birth rate there, keeping all row sums at
    zero (a proper generator, mass-conserving).  REFLECT_NONE is the raw
    truncation of the infinite generator: the last row keeps -(lam + mu) on
    the diagonal and mass leaks out at the rate it would have left the
    retained window.  The leaky variant exists to expose truncation effects,
    and matches the realized shift-algebra expression lam U - mu S U exactly.
    """

    ABSORB_LAST = "absorb"
    REFLECT_NONE = "raw"


@dataclass(frozen=True)
class BirthDeathSpec:
    """Truncated chain description: rate pairs, state count, boundary policy.

    lam = (lam_0, lam_1) and mu = (mu_0, mu_1) are the constant and
    per-unit-time parts of the rates.  The constant parts must be positive;
    the linear parts may be zero, which gives the autonomous chain.
    """

    lam: tuple[float, float]
    mu: tuple[float, float]
    states: int
    boundary: Boundary = Boundary.ABSORB_LAST

    def __post_init__(self) -> None:
        if len(self.lam) != 2 or len(self.mu) != 2:
            raise ValueError("lam and mu must each hold (constant, linear) rates")
        for name, rates in (("lam", self.lam), ("mu", self.mu)):
            if not all(math.isfinite(r) for r in rates):
                raise ValueError(f"{name} rates must be finite, got {tuple(rates)}")
        if self.lam[0] <= 0 or self.mu[0] <= 0:
            raise ValueError("constant rate parts must be > 0")
        if self.lam[1] < 0 or self.mu[1] < 0:
            raise ValueError("linear rate parts must be >= 0")
        if self.states < 3:
            raise ValueError(f"need at least 3 states, got {self.states}")


def build_generator(lam: float, mu: float, spec: BirthDeathSpec) -> np.ndarray:
    """Tridiagonal truncated generator for one (birth, death) rate pair.

    First row (-lam, lam, 0, ...); interior rows (mu, -(lam+mu), lam); last
    row (..., mu, -mu) under ABSORB_LAST or (..., mu, -(lam+mu)) under
    REFLECT_NONE.
    """
    return _dense(_diagonals(lam, mu, spec))


def _diagonals(lam, mu, spec: BirthDeathSpec) -> np.ndarray:
    """build_generator's matrix A as its diagonals: out[k, i] = A[i, i - 1 + k], 0 off the matrix.

    lam and mu may be sequences of one length m; the result is then the
    (m, 3, n) stack of the generators of the pairs (lam[j], mu[j]).
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    mu = np.asarray(mu, dtype=float)[..., None]
    out = np.zeros((*lam.shape[:-1], 3, spec.states))
    out[..., 0, 1:] = mu
    out[..., 1, :] = -(lam + mu)
    out[..., 1, :1] = -lam
    if spec.boundary is Boundary.ABSORB_LAST:
        out[..., 1, -1:] = -mu
    out[..., 2, :-1] = lam
    return out


def _dense(diagonals: np.ndarray) -> np.ndarray:
    """The (..., n, n) matrices whose diagonals are the (..., 3, n) diagonals."""
    n = diagonals.shape[-1]
    i = np.arange(n)
    out = np.zeros((*diagonals.shape[:-2], n, n))
    out[..., i[1:], i[:-1]] = diagonals[..., 0, 1:]
    out[..., i, i] = diagonals[..., 1, :]
    out[..., i[:-1], i[1:]] = diagonals[..., 2, :-1]
    return out


def _transposed(diagonals: np.ndarray) -> np.ndarray:
    """The diagonals of the transposed matrices: the row vector x A is the column A^T x^T."""
    out = np.zeros_like(diagonals)
    out[..., 0, 1:] = diagonals[..., 2, :-1]
    out[..., 1, :] = diagonals[..., 1, :]
    out[..., 2, :-1] = diagonals[..., 0, 1:]
    return out


def _diagonal_norm_bounds(diagonals: np.ndarray) -> np.ndarray:
    """Max-row-sum norms of the matrices of a (p+1, ..., 3, n) stack of diagonals, rounded up.

    Each row sum adds 3 entries, so _up(., 3) covers its rounding.  The
    result has the shape (..., p+1): one row of norms per family, as
    _local_bound takes them.
    """
    return np.moveaxis(_up(np.abs(diagonals).sum(axis=-2).max(axis=-1), 3), 0, -1)


def _stencil_expand(diagonals: np.ndarray, start: np.ndarray, order: int) -> np.ndarray:
    """T_0 = start and n T_n = sum_j A_j T_{n-1-j} for column vectors, A_j tridiagonal.

    diagonals[j, ..., k, i] = A_j[i, i - 1 + k], and start[..., i] is entry
    i of the column; leading axes between j and the diagonals hold families
    expanded side by side, each from its own start.  Returns the
    (order+1, ..., n) terms.  A row vector's series, n T_n =
    sum_j T_{n-1-j} A_j, is this one run on _transposed(diagonals).

    The terms live in one stack padded by p zero terms before T_0 and a zero
    entry at each end of every term, so the products A_j T_{n-1-j} of every
    j and all three diagonals of an order are one einsum over 3-entry
    windows of the stack.  Each entry of T_n is a sum of at most 3(p+1)
    products, then a division: _local_bound's count with dim = 3.
    """
    p = len(diagonals) - 1
    stack = np.zeros((order + 1 + p, *start.shape[:-1], start.shape[-1] + 2))
    stack[p, ..., 1:-1] = start
    windows = sliding_window_view(stack, 3, axis=-1)  # [r, ..., i, k] = stack[r, ..., i + k]
    # Rows n - 1 .. n - 1 + p of the stack hold T_{n-1-p} .. T_{n-1}: A_p .. A_0.
    reversed_family = diagonals[::-1]
    for n in range(1, order + 1):
        term = stack[p + n, ..., 1:-1]
        np.einsum("j...ik,j...ki->...i", windows[n - 1 : n + p], reversed_family, out=term)
        term /= n
    return stack[p:, ..., 1:-1]


@dataclass(frozen=True, eq=False)
class DistributionTrajectory:
    """Distributions on an even time grid plus bookkeeping columns.

    distributions[i] is the row p(times[i]), propagated directly (no
    propagator is formed); leakage[i] = |1 - sum of row|; tail_bounds[i]
    bounds the l1 distance of that row from the exact distribution.  The
    bound scales with ||p(0)||_1: doubling the initial row doubles it.
    """

    times: np.ndarray
    distributions: np.ndarray
    leakage: np.ndarray
    tail_bounds: np.ndarray


def solve_bdp(
    spec: BirthDeathSpec,
    t_final: float,
    steps: int,
    order: int,
    initial: np.ndarray | None = None,
) -> tuple[DistributionTrajectory, MatrixPolyCoefficients]:
    """Distribution trajectory on an even grid, plus the generator family it solves.

    The default initial distribution puts all mass on the first state.  Each
    step recenters the family at its left end, expands the row p~ reached so
    far to the given order and sums that series at the step length h.  The
    family runs as its diagonals (_diagonals), shifted to every grid origin
    in one _shift; the recursion is _stencil_expand on their transpose and
    the norms add 3 entries a row, so a step costs O(order n) and touches
    no n x n array.  The returned family, built once from the same
    diagonals, is the only n x n memory of a solve: A_0 + A_1 t with RIGHT
    orientation, whose expansion by compute_coefficients gives
    coefficient-level checks such as R_2 = (A_0^2 + A_1) / 2.

    The bound grows by ||p~_prev||_1 times the local bound each step.  With
    R_k the exact local propagator, p~_k - p_k = (p~_k - p~_{k-1} R_k) +
    (p~_{k-1} - p_{k-1}) R_k; the first part, rounding included, is at most
    ||p~_{k-1}||_1 times the engine's _local_bound (its sums rounded up), and
    ||x M||_1 <= ||x||_1 ||M|| in the max-row-sum norm.  Every A(t), t >= 0,
    has nonnegative off-diagonals and row sums <= 0 under both boundaries
    (BirthDeathSpec keeps the rates nonnegative), so R_k is substochastic and
    ||R_k|| <= 1: earlier error is carried forward without growth.  Under
    REFLECT_NONE mass leaks and ||R_k||, the largest row sum of R_k, can be
    well below 1, so the carried error is scaled by min(1, that row sum plus
    its error), with the row sums taken from the backward equation by
    _row_sums.  That keeps the bound close to the one composed from full
    propagators, but not always at or below it: the factor adds the error
    of the backward row sums at t_next, and at the rounding floor the two
    bounds differ by a few ulps of exp(integral of a').  A factor that always
    met the full-propagator bound would need ||R~_k||, the n x n local
    propagator that the row solve avoids.  The row sums of every leaky step
    are one batched _row_sums call, and the local bounds of every step and
    of those row sums one stacked _local_bound call, after the last step.
    Each entry of a tridiagonal product sums at most 3 products, so
    _local_bound counts the recursion's rounding with dim = 3; the mass
    ||p~||_1 still sums n entries.

    The first step whose series is not finite is refused by _refuse_overflow,
    with solve_stepped's one message.
    """
    if t_final <= 0:
        raise ValueError(f"final time must be > 0, got {t_final}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    family = _diagonals(spec.lam, spec.mu, spec)
    dense = _dense(family)
    dense.setflags(write=False)  # so that MatrixPolyCoefficients keeps it uncopied
    coeffs = MatrixPolyCoefficients(dense, Orientation.RIGHT)
    if initial is None:
        p = np.zeros(spec.states)
        p[0] = 1.0
    else:
        p = np.asarray(initial, dtype=float)
        if p.shape != (spec.states,):
            raise ValueError(
                f"initial distribution must have shape ({spec.states},), got {p.shape}"
            )
        if not np.isfinite(p).all():
            raise ValueError("initial distribution has a non-finite entry")
    leaky = spec.boundary is Boundary.REFLECT_NONE
    unshifted = _diagonal_norm_bounds(family).tolist()
    times = [0.0, *_step_ends(t_final, t_final / steps)]
    hs = [t_next - t_prev for t_prev, t_next in zip(times, times[1:])]
    # Overflow, of the shifted family or of a series, shows as a refused
    # series or an inf value and bound, so numpy's floating-point warnings
    # would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # The family recentered at every grid time, and its norms there.
        shifted = _shift(family, times)
        norms = _diagonal_norm_bounds(shifted)
        forward = _transposed(shifted)
        # Steps whose carried error needs the leak factor: for a leaky chain,
        # those after some nonzero mass (else the carried error is 0).
        masses, leaky_steps = [], []
        dists = [p]
        for k, (t_prev, h) in enumerate(zip(times, hs)):
            if leaky and any(masses):
                leaky_steps.append(k)
            masses.append(_up(float(np.abs(p).sum()), spec.states))
            terms = _stencil_expand(forward[:, k], p, order)
            # The shift can overflow only in A_0 + t A_1, every entry of which
            # enters the first term: a non-finite shift shows in the series.
            _refuse_overflow([np.isfinite(terms).all()], [t_prev])
            p = _horner(terms, h)
            dists.append(p)
        dists = np.vstack(dists)
        leakage = np.abs(1.0 - dists.sum(axis=1))
        # The row sums of every leaky step at once, from the family at its end.
        rows, starts, lengths, tops = norms[:-1], times[:-1], hs, []
        if leaky_steps:
            leak_hs = [hs[k] for k in leaky_steps]
            ends = [k + 1 for k in leaky_steps]
            sums, back_norms = _row_sums(shifted[:, ends], np.array(leak_hs)[:, None], order)
            tops = sums.max(axis=1).tolist()
            rows = np.vstack([rows, back_norms])
            starts, lengths = starts + [times[k] for k in ends], lengths + leak_hs
    # One stacked bound: every step's, then the row sums' of the leaky steps.
    local_bounds = _local_bound(rows, unshifted, starts, 3, order, lengths)
    errors = local_bounds[len(hs):]
    factors = {k: min(1.0, top + error) for k, top, error in zip(leaky_steps, tops, errors)}
    bounds = [0.0]
    for k, (mass, local_bound) in enumerate(zip(masses, local_bounds)):
        carried = bounds[-1]
        if leaky and carried:
            carried = _up(carried * factors[k], 2)
        # A zero row stays exactly zero, even where the local bound is inf.
        bounds.append(_up(carried + mass * local_bound, 2) if mass else carried)
    traj = DistributionTrajectory(np.array(times), dists, leakage, np.array(bounds))
    return traj, coeffs


def _row_sums(ahead: np.ndarray, h, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the exact propagator R of a step of length h, and norms bounding their error.

    ahead is the (p+1, 3, n) diagonals of the family recentered at the
    step's end t_next.  The forward recursion run on the column of ones
    gives the row sums of the LEFT propagator, which multiplies in reverse
    time order; they differ from those of R whenever A_0 and A_1 do not
    commute on that column.  The row sums u(s) of the propagator from s to
    t_next instead solve the backward equation du/ds = -A(s) u,
    u(t_next) = 1.  In tau = t_next - s that is du/dtau = B(tau) u with
    B(tau) = A(t_next - tau): ahead with its odd coefficients negated,
    expanded as columns from the column of ones and summed at h.  The second
    value is the norms of B in the max-row-sum norm, which is
    submultiplicative: their _local_bound row, shifted to t_next from the
    family's own norms, bounds the error of the sums.

    A (p+1, S, 3, n) ahead with an (S, 1) array h gives the (S, n) sums and
    (S, p+1) norms of S steps at once.
    """
    signs = (-1.0) ** np.arange(len(ahead))
    back = ahead * signs.reshape(-1, *[1] * (ahead.ndim - 1))
    sums = _stencil_expand(back, np.ones(ahead.shape[1:-2] + ahead.shape[-1:]), order)
    return _horner(sums, h), _diagonal_norm_bounds(back)


@dataclass(frozen=True)
class StochasticityRow:
    t: float
    leakage: float
    min_entry: float
    negative: bool


@dataclass(frozen=True)
class StochasticityReport:
    """Per-time mass defect and entry signs for a trajectory.

    negative flags a row with an entry below minus its tail bound: every
    exact entry is >= 0, so such an entry contradicts the certificate.
    Negative values within the bound are expected float and truncation noise.
    """

    rows: tuple[StochasticityRow, ...]

    @property
    def max_leakage(self) -> float:
        return max(row.leakage for row in self.rows)

    @property
    def worst_entry(self) -> float:
        return min(row.min_entry for row in self.rows)

    @property
    def any_negative(self) -> bool:
        return any(row.negative for row in self.rows)


def stochasticity_report(traj: DistributionTrajectory) -> StochasticityReport:
    """Summarize mass conservation and positivity over a trajectory."""
    rows = []
    columns = zip(
        traj.times.tolist(), traj.distributions, traj.leakage.tolist(), traj.tail_bounds.tolist()
    )
    for t, dist, leakage, bound in columns:
        min_entry = float(dist.min())
        rows.append(StochasticityRow(t, leakage, min_entry, negative=min_entry < -bound))
    return StochasticityReport(rows=tuple(rows))
