"""Independent checks of each task's output, run in the parent outside any timing.

Nothing here imports the package under test.  Birth-death and stepped solves
are compared with scipy (expm for autonomous families, solve_ivp at tight
tolerance otherwise); the oracle workload's two routes must agree exactly or
to TOL, and are also compared with small reference computations written here
(a plain recursion for the explicit formula and the Peano-Baker sum, the
scalar weight-sum recursion, matrix powers of the realized shift operator,
matrices of the reduced identity words, and the criterion-8 goldens).

Each check returns a Verdict.  value_ok is False when an output is wrong;
contract_ok is False when it breaks a documented contract (steps + 1 grid
points ending at T, finite certified bounds) while its values may be right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

# Oracle tolerance: the scipy references run at rtol 1e-13 and land within
# about 1e-12 of the series, so an observed error may exceed the certified
# bound by at most TOL (relative to max(1, |R|)).
TOL = 1e-10
IVP = {"method": "DOP853", "rtol": 1e-13, "atol": 1e-16}


@dataclass
class Verdict:
    value_ok: bool = True
    contract_ok: bool = True
    note: str = ""
    final_bound: float | None = None

    def value(self, ok: bool, note: str) -> None:
        if not ok:
            self.value_ok = False
            self.note += note + "; "

    def contract(self, ok: bool, note: str) -> None:
        if not ok:
            self.contract_ok = False
            self.note += note + "; "


def _grid(verdict: Verdict, times: np.ndarray, t_final: float, steps: int, step: float, slack: float) -> None:
    verdict.contract(
        len(times) == steps + 1 and abs(times[-1] - t_final) <= slack,
        f"grid has {len(times)} points ending at {float(times[-1])!r}, expected {steps + 1} ending at {t_final!r}",
    )
    if len(times) == steps + 1:
        expected = np.minimum(np.arange(steps + 1) * step, t_final)
        verdict.contract(bool(np.all(np.abs(times - expected) <= slack)), "grid points off k*h")


def birth_death_generator(lam: float, mu: float, states: int, boundary: str) -> np.ndarray:
    """Tridiagonal generator: birth lam up, death mu down, last row per boundary."""
    gen = np.zeros((states, states))
    idx = np.arange(states - 1)
    gen[idx, idx + 1] = lam
    gen[idx + 1, idx] = mu
    np.fill_diagonal(gen, -(lam + mu))
    gen[0, 0] = -lam
    if boundary == "absorb":
        gen[-1, -1] = -mu
    return gen


def check_bdp(task: dict, out: dict) -> Verdict:
    verdict = Verdict()
    times = np.array(out["times"])
    dists = np.array(out["distributions"])
    bounds = np.array(out["tail_bounds"])
    t_final, steps = task["T"], task["steps"]
    _grid(verdict, times, t_final, steps, t_final / steps, 1e-12 * t_final)
    verdict.contract(bool(np.all(np.isfinite(bounds))), "certified bound not finite")
    verdict.final_bound = float(bounds[-1])

    a0 = birth_death_generator(task["lam"][0], task["mu"][0], task["states"], task["boundary"])
    a1 = birth_death_generator(task["lam"][1], task["mu"][1], task["states"], task["boundary"])
    p0 = np.array(task["initial"])
    if not a1.any():
        reference = np.array([p0 @ expm(a0 * t) for t in times])
    else:
        sol = solve_ivp(lambda t, p: p @ a0 + t * (p @ a1), (0.0, t_final), p0, t_eval=np.unique(times), **IVP)
        lookup = dict(zip(sol.t, sol.y.T))
        reference = np.array([lookup[t] for t in times])
    # Row vectors: |p0 (R - R~)|_1 <= |p0|_1 * max row sum, and |p0|_1 = 1.
    err = np.abs(dists - reference).sum(axis=1)
    allowed = bounds + TOL
    verdict.value(bool(np.all(err <= allowed)), f"l1 error {err.max():.3g} above bound + tol")
    mass = dists.sum(axis=1)
    if task["boundary"] == "absorb":
        verdict.value(bool(np.all(np.abs(1.0 - mass) <= allowed)), "mass not conserved")
    else:
        verdict.value(bool(np.all(mass <= 1.0 + allowed)), "mass above 1")
        verdict.value(bool(np.all(np.diff(mass) <= allowed[1:])), "leaky chain gained mass")
    verdict.value(bool(np.all(dists.min(axis=1) >= -allowed)), "negative probability beyond the bound")
    return verdict


def _operator_norm(mat: np.ndarray, orientation: str) -> float:
    return float(np.abs(mat).sum(axis=0 if orientation == "left" else 1).max())


def check_cli(task: dict, text: str) -> Verdict:
    verdict = Verdict()
    mats = [np.array(m) for m in task["matrices"]]
    d = mats[0].shape[0]
    lines = text.strip().split("\n")
    header = ["t"] + [f"r_{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)] + ["tail_bound"]
    if lines[0].split(",") != header:
        verdict.value(False, "unexpected CSV header")
        return verdict
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    times, values, bounds = rows[:, 0], rows[:, 1:-1].reshape(-1, d, d), rows[:, -1]
    t_final, step = float(task["t"]), float(task["step"])
    # Times are printed to 12 significant digits.
    _grid(verdict, times, t_final, task["steps"], step, 1e-11 * t_final)
    verdict.contract(bool(np.all(np.isfinite(bounds))), "certified bound not finite")
    verdict.final_bound = float(bounds[-1])

    left = task["orientation"] == "left"
    if len(mats) == 1:
        reference = np.array([expm(mats[0] * t) for t in times])
    else:

        def rhs(t, y):
            a = sum(m * t**j for j, m in enumerate(mats))
            r = y.reshape(d, d)
            return (a @ r if left else r @ a).ravel()

        grid = np.unique(times)
        sol = solve_ivp(rhs, (0.0, grid[-1]), np.eye(d).ravel(), t_eval=grid, **IVP)
        lookup = dict(zip(sol.t, sol.y.T))
        reference = np.array([lookup[t].reshape(d, d) for t in times])
    for value, ref, bound, t in zip(values, reference, bounds, times):
        err = _operator_norm(value - ref, task["orientation"])
        allowed = bound + TOL * max(1.0, _operator_norm(ref, task["orientation"]))
        if not err <= allowed:
            verdict.value(False, f"error {err:.3g} above bound {bound:.3g} + tol at t={float(t)!r}")
            break
    return verdict


def _recursion(mats: list[np.ndarray], left: bool, n: int) -> list[np.ndarray]:
    """Maclaurin coefficients R_0 .. R_n of dR/dt = A(t) R (left) or R A(t) (right)."""
    terms = [np.eye(mats[0].shape[0])]
    for k in range(1, n + 1):
        acc = sum(
            (mats[j] @ terms[k - 1 - j]) if left else (terms[k - 1 - j] @ mats[j])
            for j in range(min(len(mats) - 1, k - 1) + 1)
        )
        terms.append(acc / k)
    return terms


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.abs(a - b).max() <= TOL * max(1.0, float(np.abs(b).max())))


def _weight_total(n: int, p: int) -> Fraction:
    # Scalar series of a(t) = 1 + t + ... + t^p: n r_n = r_{n-1} + ... + r_{n-1-p}.
    r = [Fraction(1)]
    for k in range(1, n + 1):
        r.append(sum(r[k - 1 - j] for j in range(min(p, k - 1) + 1)) / k)
    return r[n]


def _poly(terms) -> dict:
    return {(s, k): Fraction(c) for s, k, c in terms}


def _shift_matrices(size: int) -> tuple[np.ndarray, np.ndarray]:
    # U = -I + up-shift, S = down-shift, on the size x size truncation.
    return -np.eye(size) + np.eye(size, k=1), np.eye(size, k=-1)


# Truncation size for the identity checks; the leading block of size
# IDENTITY_SIZE - len(word) is exact.
IDENTITY_SIZE = 24


def _word_matrix(word: str, size: int) -> np.ndarray:
    u, s = _shift_matrices(size)
    out = np.eye(size)
    for letter in word:
        out = out @ (u if letter == "U" else s)
    return out


def _identity_holds(word: str, terms: list) -> bool:
    """Check the program's normal form of a word U^a S^b against two matrices.

    The word is either the absorb side U^q S^(q+r-1) (a <= b), whose right side
    is (I - S)^q S^(r-1), or the transfer side U^(q+r) S^q (a > b), whose right
    side is U^r (I - S)^q.  The normal form must match both the word's own
    matrix product and that right side on the leading block.
    """
    size = IDENTITY_SIZE
    u, s = _shift_matrices(size)
    normal = np.zeros((size, size))
    for (shift, power), coeff in _poly(terms).items():
        normal += float(coeff) * np.linalg.matrix_power(s, shift) @ np.linalg.matrix_power(u, power)
    a, b = word.count("U"), word.count("S")
    one_minus_s = np.eye(size) - s
    if a <= b:
        rhs = np.linalg.matrix_power(one_minus_s, a) @ np.linalg.matrix_power(s, b - a)
    else:
        rhs = np.linalg.matrix_power(u, a - b) @ np.linalg.matrix_power(one_minus_s, b)
    block = size - len(word)
    lead = normal[:block, :block]
    return _close(lead, _word_matrix(word, size)[:block, :block]) and _close(lead, rhs[:block, :block])


# Criterion-8 goldens: binomial groups (m, j) -> (head, tails), polynomials
# in U given as {power: coefficient}.
GOLDEN_GROUPS = {
    (2, 2): ({2: 3, 1: -3}, ({3: 3, 2: -5, 1: 6}, {3: -1, 2: 2, 1: -3})),
    (3, 0): ({3: 1}, ()),
    (2, 1): ({2: 2, 1: -1}, ({3: 1, 2: -1, 1: 1},)),
    (1, 2): ({1: 1}, ({2: 2, 1: -3}, {2: -1, 1: 2})),
    (0, 3): ({}, ({1: 1}, {1: -2}, {1: 1})),
}


def _golden_cubic(lam: Fraction, mu: Fraction) -> dict:
    total: dict = {}
    for m in range(4):
        j = 3 - m
        head, tails = GOLDEN_GROUPS[(m, j)]
        weight = (-1) ** j * lam**m * mu**j
        for s, poly in enumerate((head,) + tails):
            for k, c in poly.items():
                total[(s, k)] = total.get((s, k), 0) + weight * c
    return {key: Fraction(c) for key, c in total.items() if c != 0}


def check_oracle(task: dict, out) -> Verdict:
    verdict = Verdict()
    kind = task["kind"]
    if kind == "explicit":
        explicit, recursion = np.array(out["explicit"]), np.array(out["recursion"])
        mats = [np.array(m) for m in task["matrices"]]
        verdict.value(_close(explicit, recursion), "explicit formula and recursion disagree")
        reference = _recursion(mats, task["orientation"] == "left", task["n"])[-1]
        verdict.value(_close(recursion, reference), "recursion disagrees with the reference")
    elif kind == "pb":
        order = task["order"]
        mats = [np.array(m) for m in task["matrices"]]
        reference = _recursion(mats, task["orientation"] == "left", order)
        verdict.value(len(out["gaps"]) == order + 1, "wrong number of degrees in the report")
        verdict.value(max(row[2] for row in out["gaps"]) <= TOL, "report: Peano-Baker sum and recursion disagree")
        verdict.value(len(out["poly"]) == order + 1, "wrong number of Peano-Baker degrees")
        for k, (coeff, ref) in enumerate(zip(out["poly"], reference)):
            if not _close(np.array(coeff), ref):
                verdict.value(False, f"Peano-Baker sum off the reference recursion at degree {k}")
                break
    elif kind == "pisum":
        lhs = [Fraction(a) for a, _ in out]
        verdict.value(all(Fraction(a) == Fraction(b) for a, b in out), "pi_sum != multinomial_pi_sum")
        verdict.value(sum(lhs) == _weight_total(task["n"], task["p"]), "weight sums miss the scalar series")
    elif kind == "power":
        lam, mu, k, size = Fraction(task["lam"]), Fraction(task["mu"]), task["k"], task["size"]
        u, s = _shift_matrices(size)
        reference = np.linalg.matrix_power(float(lam) * u - float(mu) * (s @ u), k)
        block = size - 2 * k
        realized = np.array(out["matrix"])
        verdict.value(_close(realized[:block, :block], reference[:block, :block]), "realized power is wrong")
    elif kind == "goldens":
        for group in out["groups"]:
            head, tails = GOLDEN_GROUPS[(group["m"], group["j"])]
            got_head = {k: c for (_, k), c in _poly(group["head"]).items()}
            got_tails = tuple({k: c for (_, k), c in _poly(t).items()} for t in group["tails"])
            verdict.value(got_head == head and got_tails == tails, f"group {group['m']},{group['j']} off golden")
        for lam, mu, terms in out["powers"]:
            verdict.value(_poly(terms) == _golden_cubic(Fraction(lam), Fraction(mu)), f"cubic power off golden at {lam},{mu}")
        verdict.value(all(out["identities"]), "a shift identity failed")
        for word, terms in out["reduced"]:
            verdict.value(_identity_holds(word, terms), f"normal form of {word} breaks its identity")
    return verdict


def check(task: dict, out) -> Verdict:
    if task["kind"] == "bdp":
        return check_bdp(task, out)
    if task["kind"] == "cli":
        return check_cli(task, out)
    return check_oracle(task, out)
