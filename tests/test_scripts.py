import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_second_seed_step_runs_every_property_test_file():
    # CI draws the hypothesis tests again under a second seed; a file of
    # property tests left off that step's list would be drawn only once.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: bound and exact-oracle tests at a second seed", 1)[1]
    command = step.split("run:", 1)[1].splitlines()[0]
    listed = set(re.findall(r"tests/\S+\.py", command))
    with_given = {
        f"tests/{path.name}"
        for path in (ROOT / "tests").glob("*.py")
        if re.search(r"^@given\b", path.read_text(), re.M)
    }
    assert listed == with_given


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS, ids=lambda code: code.splitlines()[0][:40])
def test_readme_python_block_runs(code):
    # Each python block of README.md runs on its own against this checkout.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_bench_pairs_counts_wins_and_judges_the_claim(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def summarise(changes):
        """The record of pairs with parent task_p50_s 0.004 and these change values."""
        lines = []
        for seed, change in enumerate(changes, start=1):
            sides = [("parent", 0.004), ("change", change)]
            for side, value in sides if seed % 2 else sides[::-1]:
                lines.append(bench_pairs._sample_line("bdp_transient", seed, side, value, 10 * value))
        runs, out = tmp_path / "runs.txt", tmp_path / "BENCH.json"
        runs.write_text("\n".join(lines) + "\n")
        args = ["--out", str(out), "--claim", "bdp_transient:task_p50_s", str(runs)]
        assert bench_pairs.main(args) == 0
        return json.loads(out.read_text())

    # The change wins eight pairs, ties one and loses one: below nine tenths.
    record = summarise([0.002] * 8 + [0.004, 0.005])
    stats = record["workloads"]["bdp_transient"]["metrics"]["task_p50_s"]
    assert (stats["change_better_pairs"], stats["change_worse_pairs"]) == (8, 1)
    assert stats["parent"]["median"] == 0.004 and stats["change"]["median"] == 0.002
    assert record["workloads"]["bdp_transient"]["first"]["2"] == "change"
    assert record["claim"]["met"] is False
    assert summarise([0.002] * 9 + [0.005])["claim"]["met"] is True
