"""Transient distributions of a birth-death chain with rates linear in time.

Birth rate lam_0 + lam_1 t and death rate mu_0 + mu_1 t give a generator
A(t) = A_0 + A_1 t, each A_i the tridiagonal generator built from one
(birth, death) rate pair on a truncated state space.  In the row-vector
convention distributions evolve as p(t) = p(0) R(t) with dR/dt = R(t) A(t),
so everything runs through the series engine with RIGHT orientation.

Truncating the state space loses probability mass.  The leakage column
records |1 - sum(p)| at each grid time; nothing is ever renormalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .engine import MatrixPolyCoefficients, Orientation, solve_stepped

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

    distributions[i] is the row p(times[i]); leakage[i] = |1 - sum of row|;
    tail_bounds[i] is the engine's accumulated truncation bound, valid for
    the distribution too since the initial row has unit l1 norm.
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

    The default initial distribution puts all mass on the first state.  The
    returned family is A_0 + A_1 t with RIGHT orientation; expanding it with
    compute_coefficients gives coefficient-level checks such as
    R_2 = (A_0^2 + A_1) / 2.
    """
    if t_final <= 0:
        raise ValueError(f"final time must be > 0, got {t_final}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    a0 = build_generator(spec.lam[0], spec.mu[0], spec)
    a1 = build_generator(spec.lam[1], spec.mu[1], spec)
    coeffs = MatrixPolyCoefficients((a0, a1), Orientation.RIGHT)
    if initial is None:
        p0 = np.zeros(spec.states)
        p0[0] = 1.0
    else:
        p0 = np.asarray(initial, dtype=float)
        if p0.shape != (spec.states,):
            raise ValueError(
                f"initial distribution must have shape ({spec.states},), got {p0.shape}"
            )
    path = solve_stepped(coeffs, t_final, t_final / steps, order)
    times = np.array([s.t for s in path])
    dists = np.vstack([p0 @ s.value for s in path])
    leakage = np.abs(1.0 - dists.sum(axis=1))
    bounds = np.array([s.tail_bound for s in path])
    return DistributionTrajectory(times, dists, leakage, bounds), coeffs


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
