"""Transient distributions of a birth-death chain with rates linear in time.

Birth rate lam_0 + lam_1 t and death rate mu_0 + mu_1 t give a generator
A(t) = A_0 + A_1 t, each A_i the tridiagonal generator built from one
(birth, death) rate pair on a truncated state space.  In the row-vector
convention distributions evolve as p(t) = p(0) R(t) with dR/dt = R(t) A(t),
so everything runs through the series engine with RIGHT orientation.

The distribution itself is carried from step to step: the recursion
n p_n = sum_j p_{n-1-j} A_j runs on the row vector, so no n x n propagator
is ever formed.

Truncating the state space loses probability mass.  The leakage column
records |1 - sum(p)| at each grid time; nothing is ever renormalized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    MatrixPolyCoefficients,
    Orientation,
    _expand,
    _horner,
    _local_bound,
    _norm_bounds,
    _step_ends,
    _up,
    recenter,
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
    n = spec.states
    gen = np.zeros((n, n))
    idx = np.arange(n - 1)
    gen[idx, idx + 1] = lam
    gen[idx + 1, idx] = mu
    np.fill_diagonal(gen, -(lam + mu))
    gen[0, 0] = -lam
    if spec.boundary is Boundary.ABSORB_LAST:
        gen[n - 1, n - 1] = -mu
    return gen


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
    returned family is A_0 + A_1 t with RIGHT orientation; expanding it with
    compute_coefficients gives coefficient-level checks such as
    R_2 = (A_0^2 + A_1) / 2.

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
    _row_sums.  That keeps the bound no looser than the one composed from
    full propagators.  The local bounds of every step, and those of the row
    sums, are one stacked _local_bound call after the last step.
    """
    if t_final <= 0:
        raise ValueError(f"final time must be > 0, got {t_final}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    a0 = build_generator(spec.lam[0], spec.mu[0], spec)
    a1 = build_generator(spec.lam[1], spec.mu[1], spec)
    coeffs = MatrixPolyCoefficients((a0, a1), Orientation.RIGHT)
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
    unshifted = _norm_bounds(coeffs.matrices, coeffs.orientation).tolist()
    times = [0.0, *_step_ends(t_final, t_final / steps)]
    hs = [t_next - t_prev for t_prev, t_next in zip(times, times[1:])]
    # Per step: the local family's norms and the mass of the row it advances;
    # for a leaky chain, the largest row sum of the local propagator and the
    # norms that bound its error, by step.
    norms, masses, leaks = [], [], {}
    dists = [p]
    ahead = None  # the family recentered at the step's end, when the row sums needed it
    # Overflow shows as a refused series or an inf value and bound, so numpy's
    # floating-point warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t_prev, h) in enumerate(zip(times, hs)):
            local = recenter(coeffs, t_prev) if ahead is None else ahead
            ahead = None
            norms.append(_norm_bounds(local.matrices, local.orientation))
            if leaky and any(masses):  # else the carried error is 0 and needs no factor
                ahead = recenter(coeffs, times[k + 1])
                sums, back_norms = _row_sums(ahead, h, order)
                leaks[k] = float(sums.max()), back_norms
            masses.append(_up(float(np.abs(p).sum()), spec.states))
            terms = _expand(local.matrices, local.orientation, p, order)
            if not np.isfinite(terms).all():
                raise ValueError(
                    f"the series of the distribution overflows on the step from t = {t_prev}"
                )
            p = _horner(terms, h)
            dists.append(p)
        dists = np.vstack(dists)
        leakage = np.abs(1.0 - dists.sum(axis=1))
    # One stacked bound: every step's, then the row sums' of the leaky steps,
    # whose back families are shifted to the step's end.
    local_bounds = _local_bound(
        np.array(norms + [back for _, back in leaks.values()]), unshifted,
        times[:-1] + [times[k + 1] for k in leaks], coeffs.dim, order,
        hs + [hs[k] for k in leaks],
    )
    errors = local_bounds[len(hs):]
    factors = {k: min(1.0, top + error) for (k, (top, _)), error in zip(leaks.items(), errors)}
    bounds = [0.0]
    for k, (mass, local_bound) in enumerate(zip(masses, local_bounds)):
        carried = bounds[-1]
        if leaky and carried:
            carried = _up(carried * factors[k], 2)
        # A zero row stays exactly zero, even where the local bound is inf.
        bounds.append(_up(carried + mass * local_bound, 2) if mass else carried)
    traj = DistributionTrajectory(np.array(times), dists, leakage, np.array(bounds))
    return traj, coeffs


def _row_sums(
    ahead: MatrixPolyCoefficients, h: float, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the exact propagator R of a step of length h, and norms bounding their error.

    ahead is the family recentered at the step's end t_next.  The forward
    recursion run on the column of ones gives the row sums of the LEFT
    propagator, which multiplies in reverse time order; they differ from
    those of R whenever A_0 and A_1 do not commute on that column.  The row
    sums u(s) of the propagator from s to t_next instead solve the backward
    equation du/ds = -A(s) u, u(t_next) = 1.  In tau = t_next - s that is
    du/dtau = B(tau) u with B(tau) = A(t_next - tau): ahead with its odd
    coefficients negated, LEFT-oriented, expanded from the column of ones and
    summed at h.  The second value is the _norm_bounds of B in the
    max-row-sum norm, which is submultiplicative: their _local_bound row,
    shifted to t_next from the family's own _norm_bounds, bounds the error of
    the sums.  The next step starts from ahead too, so no shift runs twice.
    """
    signs = (-1.0) ** np.arange(len(ahead.matrices))
    back = MatrixPolyCoefficients(ahead.matrices * signs[:, None, None], Orientation.RIGHT)
    sums = _expand(back.matrices, Orientation.LEFT, np.ones(ahead.dim), order)
    return _horner(sums, h), _norm_bounds(back.matrices, back.orientation)


@dataclass(frozen=True)
class StochasticityRow:
    t: float
    leakage: float
    min_entry: float
    negative: bool


@dataclass(frozen=True)
class StochasticityReport:
    """Per-time mass defect and entry signs for a trajectory.

    negative flags mark entries below -tolerance; tiny negative values inside
    the truncation bound are expected float noise, anything larger is a bug.
    """

    rows: tuple[StochasticityRow, ...]
    tolerance: float

    @property
    def max_leakage(self) -> float:
        return max(row.leakage for row in self.rows)

    @property
    def worst_entry(self) -> float:
        return min(row.min_entry for row in self.rows)

    @property
    def any_negative(self) -> bool:
        return any(row.negative for row in self.rows)


def stochasticity_report(
    traj: DistributionTrajectory, tolerance: float = 1e-9
) -> StochasticityReport:
    """Summarize mass conservation and positivity over a trajectory."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    rows = []
    for i, t in enumerate(traj.times):
        min_entry = float(traj.distributions[i].min())
        rows.append(
            StochasticityRow(
                t=float(t),
                leakage=float(traj.leakage[i]),
                min_entry=min_entry,
                negative=min_entry < -tolerance,
            )
        )
    return StochasticityReport(rows=tuple(rows), tolerance=tolerance)
