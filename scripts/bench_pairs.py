"""Summarise alternating parent/change benchmark runs as a BENCH_N.json record.

Run perfbench/run.py in pairs, the parent's tree and the change's each from
a clean copy, alternating from pair to pair which side runs first, and save
each run's last stdout line after its workload, seed and side:

    last=$(cd "$side" && python3 perfbench/run.py --workload "$w" --seed "$s" --seconds 35 --trace 0 | tail -n 1)
    echo "$w $s $side $last" >> runs.txt

Then

    python3 scripts/bench_pairs.py runs.txt --pr N --claim bdp_transient:task_p50_s \\
        --change "what the change does" --target "the claimed figure"

writes BENCH_N.json at the root of the checkout: for each workload and
metric, each side's median and inclusive quartiles over the pairs, the
pairs the change wins and loses (ties count for neither) and every pair's
values.  The claim is met when the change wins at least nine tenths of the
pairs, its median beats the parent's by more than the parent's
interquartile range, every run is correct and the change fails no more
tasks than the parent.  The side that appears first in the file for a pair
is recorded as the one that ran first.

Run with no arguments, it prints the record of a small built-in sample
instead of writing a file.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
METHOD = (
    "parent and change each from a clean copy of its tree; one pair per seed, the side "
    "that runs first alternating from pair to pair; statistics are the median and the "
    "inclusive quartiles over the pairs' runs"
)


def _sample_line(workload: str, seed: int, side: str, p50: float, pool: float) -> str:
    metrics = {
        "setup_s": {"value": 0.09, "unit": "s"},
        "task_p50_s": {"value": p50, "unit": "s"},
        "pool_s": {"value": pool, "unit": "s"},
        "peak_rss_mb": {"value": 85.2, "unit": "MB"},
    }
    run = {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}
    return f"{workload} {seed} {side} {json.dumps(run)}"


# Made-up figures in the shape of real runs, for the no-argument demo.
SAMPLE = [
    _sample_line("bdp_transient", 1, "parent", 0.0039, 0.034),
    _sample_line("bdp_transient", 1, "change", 0.0021, 0.022),
    _sample_line("bdp_transient", 2, "change", 0.0020, 0.021),
    _sample_line("bdp_transient", 2, "parent", 0.0041, 0.035),
    _sample_line("bdp_transient", 3, "parent", 0.0038, 0.033),
    _sample_line("bdp_transient", 3, "change", 0.0022, 0.023),
]


def parse_runs(lines) -> tuple[dict, dict]:
    """{workload: {seed: {side: run}}} from 'workload seed side json' lines, and who ran first."""
    runs, first = {}, {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            workload, seed, side, last = line.split(maxsplit=3)
            run = json.loads(last)
        except ValueError:
            raise SystemExit(f"line {number}: expected 'workload seed side {{json}}'") from None
        if side not in SIDES:
            raise SystemExit(f"line {number}: side must be parent or change, got {side!r}")
        pair = runs.setdefault(workload, {}).setdefault(seed, {})
        if side in pair:
            raise SystemExit(f"line {number}: a second {side} run of {workload} seed {seed}")
        pair[side] = run
        first.setdefault(workload, {}).setdefault(seed, side)
    for workload, pairs in runs.items():
        for seed, pair in pairs.items():
            missing = [side for side in SIDES if side not in pair]
            if missing:
                raise SystemExit(f"{workload} seed {seed} has no {missing[0]} run")
    return runs, first


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise_metric(pairs: dict, name: str, better: str) -> dict:
    per_seed = {
        seed: {side: pair[side]["metrics"][name]["value"] for side in SIDES}
        for seed, pair in pairs.items()
    }
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (v["parent"] - v["change"]) for v in per_seed.values()]
    unit = next(iter(pairs.values()))["parent"]["metrics"][name]["unit"]
    return {
        "unit": unit,
        "better": better,
        "parent": spread([v["parent"] for v in per_seed.values()]),
        "change": spread([v["change"] for v in per_seed.values()]),
        "change_better_pairs": sum(g > 0 for g in gains),
        "change_worse_pairs": sum(g < 0 for g in gains),
        "per_seed": per_seed,
    }


def summarise_workload(pairs: dict, first: dict, better: dict) -> dict:
    names = [
        name
        for name in next(iter(pairs.values()))["parent"]["metrics"]
        if all(name in pair[side]["metrics"] for pair in pairs.values() for side in SIDES)
    ]
    return {
        "seeds": [int(seed) if seed.isdigit() else seed for seed in pairs],
        "pairs": len(pairs),
        "attempted": {seed: pair["parent"]["attempted"] for seed, pair in pairs.items()},
        "failed": {
            seed: {side: pair[side]["failed"] for side in SIDES} for seed, pair in pairs.items()
        },
        "all_correct": all(pair[side]["correct"] for pair in pairs.values() for side in SIDES),
        "first": first,
        "metrics": {
            name: summarise_metric(pairs, name, better.get(name, "lower")) for name in names
        },
    }


def judge_claim(workloads: dict, workload: str, metric: str, target: str) -> dict:
    """The claim's figures, and whether the pairs meet it."""
    if workload not in workloads or metric not in workloads[workload]["metrics"]:
        raise SystemExit(f"no runs of {workload} report {metric}")
    summary = workloads[workload]
    stats = summary["metrics"][metric]
    parent, change = stats["parent"], stats["change"]
    sign = 1.0 if stats["better"] == "lower" else -1.0
    iqr = parent["q3"] - parent["q1"]
    wins, pairs = stats["change_better_pairs"], summary["pairs"]
    failed = {side: sum(f[side] for f in summary["failed"].values()) for side in SIDES}
    met = (
        10 * wins >= 9 * pairs
        and sign * (parent["median"] - change["median"]) > iqr
        and summary["all_correct"]
        and failed["change"] <= failed["parent"]
    )
    return {
        "workload": workload,
        "metric": metric,
        "target": target,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": iqr,
        "change_better_pairs": wins,
        "pairs": pairs,
        "met": met,
    }


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def build_record(lines, args) -> dict:
    spec = benchmark_spec()
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 35)
    runs, first = parse_runs(lines)
    if not runs:
        raise SystemExit("no runs to summarise")
    workloads = {w: summarise_workload(pairs, first[w], better) for w, pairs in runs.items()}
    record = {"change": args.change}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = judge_claim(workloads, workload, metric, args.target)
    record.update(
        {
            "named_layer": args.named_layer,
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
            "run_seconds": seconds,
            "method": METHOD,
            "held_out_seed": args.held_out_seed,
            "machine": args.machine,
            "workloads": workloads,
        }
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?", help="file of 'workload seed side json' lines")
    parser.add_argument("--pr", type=int, help="the N of BENCH_N.json (needed with runs)")
    parser.add_argument("--out", help="output path (default: BENCH_N.json at the checkout root)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--target", default="", help="the claimed figure, as text")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--named-layer", default="", help="the layer the trace shows moving")
    parser.add_argument("--held-out-seed", type=int, help="a seed not used while writing the change")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    parser.add_argument(
        "--machine",
        default=f"{platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        help="where the runs were made (default: this machine)",
    )
    args = parser.parse_args(argv)
    if args.runs is None:
        args.claim = args.claim or "bdp_transient:task_p50_s"
        args.change = args.change or "built-in sample"
        print(json.dumps(build_record(SAMPLE, args), indent=1))
        return 0
    if args.pr is None and args.out is None:
        parser.error("--pr or --out is needed with a runs file")
    with open(args.runs, encoding="utf-8") as handle:
        record = build_record(handle, args)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if "claim" in record:
        claim = record["claim"]
        verdict = "met" if claim["met"] else "not met"
        print(
            f"claim {claim['workload']} {claim['metric']}: {claim['parent_median']:.6g} -> "
            f"{claim['change_median']:.6g}, change better in {claim['change_better_pairs']} "
            f"of {claim['pairs']} pairs, {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
