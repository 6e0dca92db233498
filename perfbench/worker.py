"""Run one workload's tasks closed-loop in a fresh interpreter.

    python3 perfbench/worker.py probe <workload>
        import the package as the workload needs it; print the seconds taken
    python3 perfbench/worker.py run <job.json> <result.json>
        run the job's task pool in rounds until its seconds are spent

The worker imports only the package under test (from src/ of this checkout)
and numpy; oracles and scipy stay in the parent, so peak RSS and import time
are the program's own.  A task is one call into the public API, timed alone;
packing its output for the parent happens outside the timed interval.

With trace on, untraced and traced passes over the pool alternate; the
traced passes run with tracer.Tracer installed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_TRACE_PAIRS = 2
GOLDEN_PAIRS = (("5", "7"), ("1", "1"))
# Left sides of the absorb identity U^q S^(q+r-1) and the transfer identity
# U^(q+r) S^q at a few (q, r); the parent checks their normal forms against
# matrices of its own.
IDENTITY_PAIRS = ((1, 2), (2, 1), (3, 3), (4, 2))
IDENTITY_WORDS = tuple(
    word for q, r in IDENTITY_PAIRS for word in ("U" * q + "S" * (q + r - 1), "U" * (q + r) + "S" * q)
)


class TaskError(RuntimeError):
    """A task that returned normally but broke its calling contract."""


def import_package(workload: str) -> float:
    """Import evoseries from this checkout as the workload uses it; seconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    package = importlib.import_module("evoseries")
    if workload == "cli_stepped":
        importlib.import_module("evoseries.cli")
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, "evoseries"):
        raise SystemExit(f"evoseries imported from {where}, not from {SRC}")
    return elapsed


def _terms(poly) -> list:
    return [[s, k, str(c)] for (s, k), c in poly.terms]


def _group(group) -> dict:
    return {"m": group.m, "j": group.j, "head": _terms(group.head), "tails": [_terms(t) for t in group.tails]}


def prepare(task: dict):
    """(call, pack) for one task: call() is the timed public-API call, pack() its output."""
    import numpy as np

    from evoseries import bdp, combinatorics, engine, peano_baker, shift_algebra

    kind = task["kind"]
    if kind == "bdp":
        spec = bdp.BirthDeathSpec(
            lam=tuple(task["lam"]),
            mu=tuple(task["mu"]),
            states=task["states"],
            boundary=bdp.Boundary(task["boundary"]),
        )
        initial = np.array(task["initial"])

        def call():
            return bdp.solve_bdp(spec, task["T"], task["steps"], task["order"], initial=initial)

        def pack(result):
            traj, _ = result
            return {
                "times": traj.times.tolist(),
                "distributions": traj.distributions.tolist(),
                "tail_bounds": traj.tail_bounds.tolist(),
            }

        return call, pack

    if kind == "cli":
        from evoseries import cli

        argv = [
            "solve", "--coeffs", task["coeffs_path"], "--orientation", task["orientation"],
            "--t", task["t"], "--step", task["step"], "--order", str(task["order"]),
            "--out", task["out_path"],
        ]

        def call():
            return cli.main(argv)

        def pack(code):
            if code != 0:
                raise TaskError(f"exit code {code}")
            with open(task["out_path"], encoding="utf-8") as handle:
                return handle.read()

        return call, pack

    if kind in ("explicit", "pb"):
        mats = tuple(np.array(m) for m in task["matrices"])
        orientation = engine.Orientation(task["orientation"])
        if kind == "explicit":
            n = task["n"]

            def call():
                coeffs = engine.MatrixPolyCoefficients(mats, orientation)
                return engine.compute_coefficients_explicit(coeffs, n), engine.compute_coefficients(coeffs, n).terms[n]

            def pack(result):
                return {"explicit": result[0].tolist(), "recursion": result[1].tolist()}

            return call, pack

        order = task["order"]

        def call():
            coeffs = engine.MatrixPolyCoefficients(mats, orientation)
            return (
                peano_baker.pb_equivalence_report(coeffs, order),
                peano_baker.pb_partial_sum(coeffs, order, max_degree=order),
            )

        def pack(result):
            rows, poly = result
            return {
                "gaps": [[r.degree, r.abs_gap, r.rel_gap] for r in rows],
                "poly": [poly.coefficient(k).tolist() for k in range(order + 1)],
            }

        return call, pack

    if kind == "pisum":
        n, p = task["n"], task["p"]

        def call():
            return [
                (combinatorics.pi_sum(n, q, p), combinatorics.multinomial_pi_sum(n, q, p))
                for q in range(combinatorics.max_total_index(n, p) + 1)
            ]

        def pack(pairs):
            return [[str(a), str(b)] for a, b in pairs]

        return call, pack

    if kind == "power":
        lam, mu = Fraction(task["lam"]), Fraction(task["mu"])

        def call():
            poly = shift_algebra.power_expand(task["k"], lam, mu)
            return poly, shift_algebra.realize(poly, task["size"])

        def pack(result):
            return {"terms": _terms(result[0]), "matrix": result[1].tolist()}

        return call, pack

    if kind == "goldens":
        pairs = [tuple(map(Fraction, pair)) for pair in GOLDEN_PAIRS + ((task["lam"], task["mu"]),)]

        def call():
            return (
                [shift_algebra.binomial_group(2, 2)] + [shift_algebra.binomial_group(m, 3 - m) for m in range(4)],
                [shift_algebra.power_expand(3, lam, mu) for lam, mu in pairs],
                [shift_algebra.shift_identities_check(q, r).all_pass for q in range(1, 5) for r in range(1, 5)],
                [shift_algebra.reduce(word) for word in IDENTITY_WORDS],
            )

        def pack(result):
            groups, powers, identities, reduced = result
            return {
                "groups": [_group(g) for g in groups],
                "powers": [[str(lam), str(mu), _terms(poly)] for (lam, mu), poly in zip(pairs, powers)],
                "identities": identities,
                "reduced": [[word, _terms(poly)] for word, poly in zip(IDENTITY_WORDS, reduced)],
            }

        return call, pack

    raise ValueError(f"unknown task kind {kind!r}")


class Runner:
    """Executes tasks and keeps one record per execution plus each task's first output."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.records = []
        self.outputs = {}

    def execute(self, index: int, call, traced: bool) -> float:
        _, pack = self.tasks[index]
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed task is counted, not fatal
            elapsed = time.perf_counter() - start
            self.records.append([index, elapsed, None, f"{type(exc).__name__}: {exc}", traced])
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            payload = pack(result)
        except TaskError as exc:
            self.records.append([index, elapsed, None, str(exc), traced])
            return elapsed
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        self.outputs.setdefault(index, payload)
        self.records.append([index, elapsed, digest, None, traced])
        return elapsed

    def run_pass(self, wrap=None) -> float:
        total = 0.0
        for index, (call, _) in enumerate(self.tasks):
            if wrap is None:
                total += self.execute(index, call, False)
            else:
                total += self.execute(index, lambda: wrap(index, call), True)
        return total


def run_job(job: dict) -> dict:
    import_s = import_package(job["workload"])
    runner = Runner([prepare(task) for task in job["pool"]])
    deadline = time.perf_counter() + job["seconds"]
    result = {"import_s": import_s}
    if not job["trace"]:
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            runner.run_pass()
            rounds += 1
        result["rounds"] = rounds
    else:
        from tracer import Tracer

        tracer = Tracer()
        passes = []
        while len(passes) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
            untraced_s = runner.run_pass()
            tracer.reset()
            tracer.install()
            try:
                traced_s = runner.run_pass(wrap=tracer.run_task)
            finally:
                tracer.uninstall()
            if not passes:
                tracer.write_spans(job["spans_path"])
            passes.append(
                {
                    "untraced_s": untraced_s,
                    "traced_s": traced_s,
                    "self_s": tracer.self_times(),
                    "counts": dict(tracer.counts),
                    "spans": len(tracer.spans),
                }
            )
        result["passes"] = passes
    result["records"] = runner.records
    result["outputs"] = {str(k): v for k, v in runner.outputs.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "probe":
        print(json.dumps({"import_s": import_package(argv[1])}))
        return 0
    if len(argv) == 3 and argv[0] == "run":
        with open(argv[1], encoding="utf-8") as handle:
            job = json.load(handle)
        result = run_job(job)
        with open(argv[2], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
