"""evoseries benchmark: certified-solve latency, end to end and per layer.

    python3 perfbench/run.py --workload bdp_transient --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Generates the workload's inputs from the
seed, measures set-up in fresh interpreters, runs the task pool closed-loop in
a worker process for the given seconds, checks every output against
independent oracles outside the timed interval, and prints each metric by
name with its unit.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

BLAS runs single-threaded in every process of the benchmark (BLAS_THREADS),
so both sides of a comparison use the same count.  See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 12
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60


def run_timeout(seconds: float) -> float:
    """Seconds a worker run may take: the measured seconds plus a final round and start-up."""
    return 2 * seconds + 120

# Per-layer metrics: (name, unit).  self_s is seconds of self time per task;
# counts are per task, computed from call arguments, identical across runs of
# one seed.  Layers a workload does not reach read 0.
SELF_S = (
    "engine.compute_coefficients", "engine.recenter", "engine.evaluate", "engine.tail_bound",
    "engine.solve_stepped", "engine.operator_norm", "engine.compute_coefficients_explicit",
    "scalar.majorant_coefficients", "scalar.scalar_coefficients", "scalar.majorant_total",
    "bdp.build_generator", "bdp.solve_bdp",
    "combinatorics.pi_sum", "combinatorics.multinomial_pi_sum", "combinatorics.pi_coefficient",
    "combinatorics.enumerate_restricted_index_set", "combinatorics.term_count",
    "peano_baker.pb_equivalence_report", "peano_baker.pb_partial_sum",
    "shift_algebra.reduce", "shift_algebra.binomial_group", "shift_algebra.power_expand",
    "shift_algebra.realize", "shift_algebra.shift_identities_check",
    "matfile.load_coefficients", "matfile.parse_coefficient_text",
    "cli.main", "cli.build_parser", "cli.cmd_solve",
)
# (metric, unit, tracer count key, scale): per-task counts from call arguments.
COUNTS = (
    ("engine.compute_coefficients.calls", "count", "engine.compute_coefficients.calls", 1),
    ("engine.compute_coefficients.gflop", "Gflop", "engine.compute_coefficients.flop", 1e-9),
    ("engine.compute_coefficients.mbytes", "MB", "engine.compute_coefficients.bytes", 1e-6),
    ("engine.compute_coefficients_explicit.products", "count", "engine.compute_coefficients_explicit.products", 1),
    ("scalar.majorant_coefficients.calls", "count", "scalar.majorant_coefficients.calls", 1),
    ("combinatorics.pi_coefficient.calls", "count", "combinatorics.pi_coefficient.calls", 1),
    ("combinatorics.index_tuples", "count", "combinatorics.index_tuples", 1),
    ("peano_baker.matmuls", "count", "peano_baker.matmuls", 1),
    ("shift_algebra.reduce.calls", "count", "shift_algebra.reduce.calls", 1),
    ("shift_algebra.reduce.letters", "count", "shift_algebra.reduce.letters", 1),
    ("matfile.load_coefficients.bytes", "bytes", "matfile.load_coefficients.bytes", 1),
)
RATES = (("engine.compute_coefficients.gflops", "Gflop/s"), ("bdp.solve_bdp.expansions_per_step", "ratio"))
SHARES = tuple(f"{m}.share" for m in MODULES) + ("harness.share", "engine.max_function_share")
TRACE = (
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_task_s", "s"),
    ("trace.traced_task_s", "s"),
    ("engine.solve_stepped.cert_bound_p50", "norm"),
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name in SELF_S)
    + tuple(c[:2] for c in COUNTS)
    + RATES
    + tuple((name, "ratio") for name in SHARES)
    + TRACE
)
END_TO_END = (("setup_s", "s"), ("task_p50_s", "s"), ("pool_s", "s"), ("peak_rss_mb", "MB"))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def environment() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if _read(os.path.join(base, entry, "type")) != "Instruction":
                caches[f"L{_read(os.path.join(base, entry, 'level'))}"] = _read(os.path.join(base, entry, "size"))
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {args[0]} did not finish within {timeout:g} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return proc


def probe(workload: str) -> float:
    """Seconds a fresh interpreter takes to import the package for the workload."""
    return json.loads(run_worker(["probe", workload], PROBE_TIMEOUT_S).stdout)["import_s"]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest-percentile task time with at least TAIL_BEYOND tasks above it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def verify(pool: list[dict], result: dict) -> tuple[dict, list[str]]:
    """Oracle verdict per task, plus problems that make the run incorrect."""
    problems = []
    verdicts = {}
    for index, task in enumerate(pool):
        out = result["outputs"].get(str(index))
        verdicts[index] = oracles.check(task, out) if out is not None else None
        if verdicts[index] is not None and not verdicts[index].value_ok:
            problems.append(f"task {index} ({task['kind']}): {verdicts[index].note}")
    digests, raised, changed = {}, {}, set()
    for index, _, digest, error, traced in result["records"]:
        if error is not None:
            raised.setdefault(index, [error, 0])[1] += 1
        elif digests.setdefault(index, digest) != digest:
            changed.add((index, traced))
    problems += [f"task {i} raised {n} times: {error}" for i, (error, n) in sorted(raised.items())]
    problems += [f"task {i}: {'traced ' if t else ''}output differs from its first run" for i, t in sorted(changed)]
    return verdicts, problems


def failed_tasks(pool: list[dict], records: list, verdicts: dict) -> int:
    """Pool tasks that failed: any run raised, or the output broke its oracle or a contract.

    Each task of the pool counts once however many rounds ran, so the count
    depends only on the seed, not on how fast the machine was.
    """
    failed = {index for index, _, _, error, _ in records if error is not None}
    for index in range(len(pool)):
        verdict = verdicts.get(index)
        if verdict is None or not (verdict.value_ok and verdict.contract_ok):
            failed.add(index)
    return len(failed)


def cert_bound_p50(verdicts: dict) -> float | None:
    """Median accumulated bound at the final time over pool tasks with a finite one.

    Tasks whose bound is infinite already count as failed.
    """
    bounds = [v.final_bound for v in verdicts.values() if v is not None and v.final_bound is not None]
    finite = [b for b in bounds if math.isfinite(b)]
    return statistics.median(finite) if finite else None


def best_times(records: list) -> dict[int, float]:
    """Each pool task's fastest run.

    Other tenants of a shared host slow every kind of task together, by up
    to 2x for seconds or minutes at a time; a task's fastest run is the one
    least disturbed, so it estimates what the task itself costs.
    """
    best = {}
    for index, elapsed, _, _, _ in records:
        best[index] = min(elapsed, best.get(index, math.inf))
    return best


def layer_metrics(pool: list[dict], passes: list[dict], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metric values, and each span name's share of traced task time."""
    count_keys = sorted(set().union(*(p["counts"] for p in passes)))
    for i, p in enumerate(passes[1:], start=2):
        if any(p["counts"].get(k, 0) != passes[0]["counts"].get(k, 0) for k in count_keys):
            problems.append(f"work counts of traced pass {i} differ from pass 1")
    tasks = len(pool) * len(passes)
    counts = passes[0]["counts"]
    self_s = {}
    for p in passes:
        for name, seconds in p["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    traced_s = sum(p["traced_s"] for p in passes)
    untraced_s = sum(p["untraced_s"] for p in passes)
    values = {f"{name}.self_s": self_s.get(name, 0.0) / tasks for name in SELF_S}
    for name, _, key, scale in COUNTS:
        values[name] = counts.get(key, 0) * scale / len(pool)
    cc_self = self_s.get("engine.compute_coefficients", 0.0)
    flop = counts.get("engine.compute_coefficients.flop", 0) * len(passes)
    values["engine.compute_coefficients.gflops"] = flop / 1e9 / cc_self if cc_self else 0.0
    bdp_steps = counts.get("bdp.solve_bdp.steps", 0)
    expansions = counts.get("engine.compute_coefficients.calls", 0)
    values["bdp.solve_bdp.expansions_per_step"] = expansions / bdp_steps if bdp_steps else 0.0
    module_s = {m: 0.0 for m in MODULES}
    for name, seconds in self_s.items():
        module = name.split(".")[0]
        if module in module_s:
            module_s[module] += seconds
    for module, seconds in module_s.items():
        values[f"{module}.share"] = seconds / traced_s
    values["harness.share"] = self_s.get("task", 0.0) / traced_s
    engine_fns = [s for name, s in self_s.items() if name.startswith("engine.")]
    values["engine.max_function_share"] = max(engine_fns, default=0.0) / traced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["trace.untraced_task_s"] = untraced_s / tasks
    values["trace.traced_task_s"] = traced_s / tasks
    return values, {name: s / traced_s for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        pool = workloads.make_pool(args.workload, args.seed, work)
        label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        job = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "pool": pool,
            "spans_path": os.path.join(OUT_DIR, f"{label}-spans.csv"),
        }
        job_path, result_path = os.path.join(work, "job.json"), os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        # Half the set-up probes run before the worker and half after, so the
        # median spans the run rather than one moment of a noisy machine.
        probes = SETUP_PROBES // 2 if not args.trace else 0
        setup = [probe(args.workload) for _ in range(probes)]
        run_worker(["run", job_path, result_path], run_timeout(args.seconds))
        setup += [probe(args.workload) for _ in range(probes)]
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        verdicts, problems = verify(pool, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    attempted = len(pool)
    failed = failed_tasks(pool, records, verdicts)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"tasks attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f} runs={len(records)}")
    for index, verdict in sorted(verdicts.items()):
        if verdict is not None and verdict.note:
            print(f"  task {index} ({pool[index]['kind']}): {verdict.note}")
    bound = cert_bound_p50(verdicts)
    if bound is not None:
        print(f"cert_bound_p50 = {bound:.6g} (median accumulated bound at T over {attempted} tasks)")

    if not args.trace:
        times = [r[1] for r in records]
        best_by_task = best_times(records)
        best = list(best_by_task.values())
        tail_s, tail_pct = tail(times)
        print(f"task_tail_s = {tail_s:.6g} s (p{tail_pct:.1f} of {len(times)} runs, not bounded)")
        setup.append(result["import_s"])
        values = {
            "setup_s": statistics.median(setup),
            "task_p50_s": statistics.median(best),
            "pool_s": sum(best),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh imports",
            "task_p50_s": f"median over {len(best)} tasks of each one's fastest of {result['rounds']} rounds",
            "pool_s": f"sum over {len(best)} tasks of each one's fastest run",
            "peak_rss_mb": "worker process",
        }
        units = dict(END_TO_END)
    else:
        values, shares = layer_metrics(pool, result["passes"], problems)
        values["engine.solve_stepped.cert_bound_p50"] = bound or 0.0
        passes = result["passes"]
        notes = {}
        units = dict(PER_LAYER)
        print(f"traced passes {len(passes)}, spans per pass {passes[0]['spans']}, spans in {job['spans_path']}")
        print("self-time share of traced task time:")
        for name, share in shares.items():
            print(f"  {name:48s} {share:8.4f}")
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}" + (f"  ({notes[name]})" if name in notes else ""))
    for problem in problems:
        print(f"PROBLEM {problem}")
    record = {"env": env, "attempted": attempted, "failed": failed, "problems": problems, "values": values, "notes": notes}
    if not args.trace:
        record["best_s"] = {str(i): best_by_task.get(i) for i in range(len(pool))}
    with open(os.path.join(OUT_DIR, f"{label}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
