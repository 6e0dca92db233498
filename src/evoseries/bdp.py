"""Transient distributions of a birth-death chain with rates linear in time.

Birth rate lam_0 + lam_1 t and death rate mu_0 + mu_1 t give a generator
A(t) = A_0 + A_1 t, each A_i the tridiagonal generator built from one
(birth, death) rate pair on a truncated state space.  In the row-vector
convention distributions evolve as p(t) = p(0) R(t) with dR/dt = R(t) A(t),
so everything runs through the series engine with RIGHT orientation.

The distribution itself is carried from step to step: the recursion
n p_n = sum_j p_{n-1-j} A_j runs on the row vector and the family on its
diagonals, so no n x n array is formed.  The dense family, for
coefficient-level checks, is generator_family.

Truncating the state space loses probability mass.  The leakage column
records |1 - sum(p)| at each grid time; nothing is ever renormalized.  Every
local propagator is substochastic, so the bound carries earlier error unscaled.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .engine import (
    MatrixPolyCoefficients,
    Orientation,
    _frozen,
    _horner,
    _plan,
    _step_grid,
    _up,
)

__all__ = [
    "Boundary",
    "BirthDeathSpec",
    "DistributionTrajectory",
    "StochasticityReport",
    "generator_family",
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
        object.__setattr__(self, "states", operator.index(self.states))  # 5.5 is a TypeError
        if self.states < 3:
            raise ValueError(f"need at least 3 states, got {self.states}")
        object.__setattr__(self, "boundary", Boundary(self.boundary))


def generator_family(spec: BirthDeathSpec) -> MatrixPolyCoefficients:
    """The dense family A_0 + A_1 t with RIGHT orientation.

    Each A_i is the tridiagonal truncated generator of one (birth, death)
    rate pair (lam, mu): first row (-lam, lam, 0, ...); interior rows
    (mu, -(lam+mu), lam); last row (..., mu, -mu) under ABSORB_LAST or
    (..., mu, -(lam+mu)) under REFLECT_NONE.  solve_bdp steps on the
    diagonals of the same family; this n x n form is for coefficient-level
    checks, such as compute_coefficients or a stepped solve of full
    propagators.
    """
    return MatrixPolyCoefficients(_dense(_diagonals(spec.lam, spec.mu, spec)), Orientation.RIGHT)


def _diagonals(lam, mu, spec: BirthDeathSpec) -> np.ndarray:
    """The generator A of one rate pair (see generator_family) as its diagonals.

    out[k, i] = A[i, i - 1 + k], 0 off the matrix.  lam and mu may be
    sequences of one length m; the result is then the (m, 3, n) stack of the
    generators of the pairs (lam[j], mu[j]).
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


class _Stencil:
    """One padded term stack for n T_n = sum_j A_j T_{n-1-j}, reused by every expansion.

    The terms are column vectors of n entries and A_0..A_p tridiagonal, so
    entry i of T_n is sum_j sum_k A_j[i, i - 1 + k] T_{n-1-j}[i - 1 + k]: one
    einsum an order over 3-entry windows of the row, each entry a sum of at
    most 3(p+1) products (_local_bound's dim = 3), then a division.  The
    stack holds p zero terms before T_0 and a zero entry at each end of a
    term.  expand(family, start), family[j, k, i] = A_j[i, i - 1 + k], copies
    both into its own buffers and returns T_0..T_order as one (order+1, n) view.
    """

    def __init__(self, p: int, n: int, order: int):
        stack = np.zeros((order + 1 + p, n + 2))
        self._family = np.zeros((p + 1, 3, n))
        # [r, i, k] = stack[r, i + k]: sliding_window_view's windows, built
        # directly as a strided view in a small fraction of its time.
        row, item = stack.strides
        windows = np.ndarray((len(stack), n, 3), buffer=stack, strides=(row, item, item))
        # Rows m - 1 .. m - 1 + p of the stack hold T_{m-1-p} .. T_{m-1}: A_p .. A_0.
        # A float m divides to the same bits as the int, in less time.
        self._reversed_family = self._family[::-1]
        self._orders = [
            (windows[m - 1 : m + p], stack[p + m, 1:-1], float(m)) for m in range(1, order + 1)
        ]
        self._terms = stack[p:, 1:-1]

    def expand(self, family: np.ndarray, start: np.ndarray) -> np.ndarray:
        self._family[...] = family
        self._terms[0] = start
        family = self._reversed_family
        for windows, term, m in self._orders:
            np.einsum("jik,jki->i", windows, family, out=term)
            term /= m
        return self._terms


@dataclass(frozen=True, eq=False)
class DistributionTrajectory:
    """Distributions on an even time grid plus their bounds, as read-only arrays.

    distributions[i] is the row p(times[i]), propagated directly (no
    propagator is formed); tail_bounds[i] bounds the l1 distance of that row
    from the exact distribution, and scales with ||p(0)||_1.  leakage[i] =
    |1 - sum of row| is formed on each read, with no numpy warning.
    """

    times: np.ndarray
    distributions: np.ndarray
    tail_bounds: np.ndarray

    @property
    def leakage(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(1.0 - self.distributions.sum(axis=1))


def solve_bdp(
    spec: BirthDeathSpec,
    t_final: float,
    steps: int,
    order: int,
    initial: np.ndarray | None = None,
) -> tuple[DistributionTrajectory, np.ndarray]:
    """Distribution trajectory on an even grid, plus the generator diagonals it steps on.

    The default initial distribution puts all mass on the first state.  The
    steps run through engine._step_grid on the diagonals (_diagonals): each
    block's shift is transposed once, and each step expands the row p~
    reached so far by one _Stencil and sums it at the step length.  A step
    costs O(order n) time and memory; no n x n array is formed.  The second
    value is the read-only (2, 3, n) diagonals of A_0 and A_1, whose dense
    form, generator_family(spec), serves coefficient-level checks.

    The bound grows by ||p~_prev||_1 times the local bound each step.  With
    R_k the exact local propagator, p~_k - p_k = (p~_k - p~_{k-1} R_k) +
    (p~_{k-1} - p_{k-1}) R_k; the first part, rounding included, is at most
    ||p~_{k-1}||_1 times the engine's _local_bound (dim = 3: an entry of a
    tridiagonal product sums 3 products), and ||x M||_1 <= ||x||_1 ||M|| in
    the max-row-sum norm.  Every A(t), t >= 0, has nonnegative off-diagonals
    (BirthDeathSpec keeps the rates nonnegative) and row sums <= 0 under both
    boundaries, so R_k is substochastic and ||R_k|| <= 1: earlier error is
    carried unscaled.  Under REFLECT_NONE ||R_k|| can be well below 1, so a
    tiny chain that leaks much of its mass gets a looser bound than one
    composed from full propagators.

    engine._plan checks and counts the solve before anything is allocated,
    the stencil and two copies of the diagonals among its fixed arrays.
    """
    if t_final <= 0:
        raise ValueError(f"final time must be > 0, got {t_final}")
    steps = operator.index(steps)  # 2.5 steps is a TypeError, not a 3-step grid
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    n, width = spec.states, len(spec.lam)
    # The stencil, its views and their finiteness check; two families; three n-long temporaries.
    fixed = (order + width) * (n + 2) + (order + 1) * (48 + n // 8) + 6 * width * n + 3 * n
    plan = _plan(f"{n} states", order, t_final, t_final / steps, (width, 3, n), n, fixed, 0)
    family = _diagonals(spec.lam, spec.mu, spec)
    family.setflags(write=False)
    p = np.eye(1, n)[0] if initial is None else np.asarray(initial, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"initial distribution must have shape ({n},), got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("initial distribution has a non-finite entry")
    stencil = _Stencil(width - 1, n, order)
    masses = []

    def advance(dists, i, shifted, block_hs):
        finite = []
        forward = _transposed(shifted).swapaxes(0, 1)
        for k, (step_family, h) in enumerate(zip(forward, block_hs), start=i):
            masses.append(_up(float(np.abs(dists[k]).sum()), n))
            terms = stencil.expand(step_family, dists[k])
            # The shift can overflow only in A_0 + t A_1, every entry of which
            # enters the first term: a non-finite shift shows in the series.
            finite.append(bool(np.isfinite(terms).all()))
            dists[k + 1] = _horner(terms, h)
        return finite

    times, dists, bounds_loc = _step_grid(plan, family, _diagonal_norm_bounds, 3, p, advance)
    bounds = [0.0]
    for mass, bound_loc in zip(masses, bounds_loc):
        # A zero row stays exactly zero, even where the local bound is inf.
        bounds.append(_up(bounds[-1] + mass * bound_loc, 2) if mass else bounds[-1])
    return DistributionTrajectory(times, dists, _frozen(bounds)), family


@dataclass(frozen=True)
class StochasticityReport:
    """Mass defect and entry signs over a trajectory.

    max_leakage is the largest leakage and worst_entry the smallest entry of
    any row.  any_negative flags a row with an entry below minus its tail
    bound: every exact entry is >= 0, so such an entry contradicts the
    certificate.  Negative values within the bound are expected float and
    truncation noise.
    """

    max_leakage: float
    worst_entry: float
    any_negative: bool


def stochasticity_report(traj: DistributionTrajectory) -> StochasticityReport:
    """Summarize mass conservation and positivity over a trajectory."""
    min_entries = traj.distributions.min(axis=1)
    return StochasticityReport(
        max_leakage=float(traj.leakage.max()),
        worst_entry=float(min_entries.min()),
        any_negative=bool((min_entries < -traj.tail_bounds).any()),
    )
