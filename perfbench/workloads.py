"""Seeded task pools for the three benchmark workloads.

Each workload is a fixed list of strata (sizes, step counts, orders) chosen
so that every seed gives a pool with the same cost profile; the seed draws
everything else (matrices, rates, final times, orientations, boundaries,
initial distributions, rationals).  Fixing sizes per stratum keeps the
run-to-run spread of the timing medians small across seeds, which is what the
benchmark's bounds are checked against.

Inputs are plain data: JSON-ready dicts for the worker, plus coefficient
files for cli_stepped.  The program under test sees only these.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

WORKLOADS = ("bdp_transient", "cli_stepped", "oracle_certify")

# (states, steps): the 31-term series of a d-state chain holds 31*d*d doubles,
# which crosses a 2 MiB L2 near d = 92 and a 4 MiB L2 near d = 130, so the
# strata sit on both sides of either.  Larger chains take fewer steps, so a
# solve takes 15-170 ms and a run repeats each chain dozens of times: the
# fastest of many short runs is what lets the benchmark see through a shared
# host's slow spells.  The median chain, (100, 12), costs about a quarter
# more than the two below it and a quarter less than the one above, and an
# extra float-sliver step moves it by a twelfth.  An autonomous chain still
# carries a (zero) A_1, so the seeded autonomous flag leaves the cost
# unchanged.  Pools have an odd number of strata so that the median task
# falls inside one stratum.
BDP_STRATA = ((60, 12), (80, 10), (115, 4), (130, 3), (100, 12), (145, 4), (175, 3), (210, 2), (250, 2))
BDP_ORDER = 30

# (d, degree, steps, order, window): window is b*h for degree >= 1, the share
# of the certified radius 1/b the first step uses, up to the loose end 0.95;
# for degree 0 (where b = 0) it is d*h instead, and d*T = window*steps bounds
# the growth of ||R||.  32 to 192 steps make a call take tens of milliseconds;
# the one 192-step 8x8 family costs about twice any other.
CLI_STRATA = (
    (2, 0, 64, 20, 0.1),
    (3, 1, 128, 25, 0.5),
    (2, 1, 32, 15, 0.9),
    (4, 2, 64, 25, 0.6),
    (5, 1, 96, 20, 0.3),
    (6, 3, 64, 30, 0.8),
    (8, 1, 192, 30, 0.4),
    (3, 3, 96, 25, 0.95),
    (4, 0, 128, 25, 0.05),
    (5, 2, 32, 30, 0.7),
    (2, 2, 128, 20, 0.2),
    (6, 1, 64, 15, 0.6),
    (8, 2, 96, 25, 0.5),
    (3, 2, 64, 20, 0.85),
    (4, 3, 32, 25, 0.4),
    (5, 0, 96, 20, 0.06),
    (3, 1, 48, 25, 0.7),
)

# Oracle checks: (kind, size).  explicit and pb: (d, degree, n or order);
# pisum: (degree, n), every q; power: k.  Every cost-setting size is fixed per
# stratum, so the seed draws only matrix entries and rationals, which leave
# the cost unchanged.  The five power-6 checks form a block of equal cost with
# six checks at under half their cost below it and six at over one and a half
# times above, so the median task is always a power-6 check (shift algebra)
# and never sits in the gap between two cost levels; the power-8 check is the
# dearest.
ORACLE_STRATA = (
    ("pisum", (1, 14)),
    ("pisum", (2, 12)),
    ("explicit", (3, 1, 12)),
    ("explicit", (2, 1, 13)),
    ("pb", (2, 1, 14)),
    ("pb", (2, 2, 12)),
    ("power", 6),
    ("power", 6),
    ("power", 6),
    ("power", 6),
    ("power", 6),
    ("goldens", None),
    ("pb", (4, 2, 24)),
    ("power", 7),
    ("explicit", (3, 2, 14)),
    ("explicit", (4, 1, 17)),
    ("power", 8),
)
REALIZE_SIZE = 40


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _balanced(rng: np.random.Generator, count: int) -> list[bool]:
    # Half True, half False, in seeded order, so every pool has the same mix.
    flags = [i < count // 2 for i in range(count)]
    return [bool(flags[i]) for i in rng.permutation(count)]


def bdp_pool(seed: int) -> list[dict]:
    rng = rng_for("bdp_transient", seed)
    autonomous = _balanced(rng, len(BDP_STRATA))
    absorbing = _balanced(rng, len(BDP_STRATA))
    pool = []
    for (states, steps), auto, absorb in zip(BDP_STRATA, autonomous, absorbing):
        lam0, mu0 = (round(float(x), 3) for x in rng.uniform(0.5, 3.0, 2))
        lam1, mu1 = (0.0, 0.0) if auto else (round(float(x), 3) for x in rng.uniform(0.1, 1.5, 2))
        support = min(8, states)
        initial = np.zeros(states)
        initial[:support] = rng.dirichlet(np.ones(support))
        pool.append(
            {
                "kind": "bdp",
                "lam": [lam0, lam1],
                "mu": [mu0, mu1],
                "states": states,
                "boundary": "absorb" if absorb else "raw",
                # Two decimals, as a user would type it; T / steps then hits
                # the float-sliver grid for some (T, steps) pairs.
                "T": round(float(rng.uniform(0.5, 2.0)), 2),
                "steps": steps,
                "order": BDP_ORDER,
                "initial": initial.tolist(),
            }
        )
    return [pool[i] for i in rng.permutation(len(pool))]


def _unit_norm(mat: np.ndarray, orientation: str) -> np.ndarray:
    axis = 0 if orientation == "left" else 1
    return mat / np.abs(mat).sum(axis=axis).max()


def _decimal(x: float, digits: int = 3) -> str:
    return f"{x:.{digits}g}"


def _cli_family(rng, d, degree, steps, window, orientation):
    # A_j = d0 b^j u_j G_j with unit-norm G_j and u_1 = 1, so the engine's
    # majorant fit gives exactly (b, d0) at the origin and the first step uses
    # the stated share of the window.  d0 is set from a growth budget
    # g = int_0^T sum_j ||A_j|| t^j dt, which keeps ||R(T)|| <= e^g moderate.
    shapes = [_unit_norm(rng.standard_normal((d, d)), orientation) for _ in range(degree + 1)]
    if degree == 0:
        h = float(_decimal(window / float(rng.uniform(0.5, 2.0))))
        return [window / h * shapes[0]], h, steps * h
    growth = float(rng.uniform(1.0, 4.0))
    b = float(rng.uniform(0.5, 2.0))
    h = float(_decimal(window / b))
    b = window / h
    t_final = steps * h
    u = [1.0, 1.0] + [float(x) for x in rng.uniform(0.3, 1.0, degree - 1)]
    mass = sum(u[j] * b**j * t_final ** (j + 1) / (j + 1) for j in range(degree + 1))
    d0 = growth / mass
    return [d0 * b**j * u[j] * shapes[j] for j in range(degree + 1)], h, t_final


def cli_pool(seed: int, inputs_dir: str) -> list[dict]:
    rng = rng_for("cli_stepped", seed)
    left = _balanced(rng, len(CLI_STRATA))
    pool = []
    for i, ((d, degree, steps, order, window), is_left) in enumerate(zip(CLI_STRATA, left)):
        orientation = "left" if is_left else "right"
        mats, h, t_final = _cli_family(rng, d, degree, steps, window, orientation)
        path = os.path.join(inputs_dir, f"family_{i:02d}.txt")
        blocks = ["\n".join(" ".join(repr(float(v)) for v in row) for row in m) for m in mats]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks) + "\n")
        pool.append(
            {
                "kind": "cli",
                "coeffs_path": path,
                "matrices": [m.tolist() for m in mats],
                "orientation": orientation,
                "order": order,
                "steps": steps,
                # Decimal strings, as typed on a command line.
                "t": _decimal(t_final, 10),
                "step": repr(h),
                "out_path": os.path.join(inputs_dir, f"solve_{i:02d}.csv"),
            }
        )
    return [pool[i] for i in rng.permutation(len(pool))]


def _rational(rng) -> str:
    return str(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))))


def oracle_pool(seed: int) -> list[dict]:
    rng = rng_for("oracle_certify", seed)
    pool = []
    for kind, size in ORACLE_STRATA:
        task = {"kind": kind}
        if kind in ("explicit", "pb"):
            d, degree, n = size
            task["orientation"] = "left" if rng.random() < 0.5 else "right"
            task["matrices"] = [rng.standard_normal((d, d)).tolist() for _ in range(degree + 1)]
            task["n" if kind == "explicit" else "order"] = n
        elif kind == "pisum":
            task["p"], task["n"] = size
        elif kind == "power":
            task["k"] = size
            task["lam"] = _rational(rng)
            task["mu"] = _rational(rng)
            task["size"] = REALIZE_SIZE
        else:
            task["lam"] = _rational(rng)
            task["mu"] = _rational(rng)
        pool.append(task)
    return [pool[i] for i in rng.permutation(len(pool))]


def make_pool(workload: str, seed: int, inputs_dir: str) -> list[dict]:
    if workload == "bdp_transient":
        return bdp_pool(seed)
    if workload == "cli_stepped":
        return cli_pool(seed, inputs_dir)
    return oracle_pool(seed)
