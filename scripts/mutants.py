"""Check that the tests need each rounding allowance of the certified bound.

Each mutant below deletes one allowance from a copy of src/.  For each, the
certificate, engine and birth-death tests run against that copy, without the
five reference tests that repeat the solvers' arithmetic bit for bit (they
would kill any change, needed or not).  A mutant is killed when a test
fails; one that every test passes is an allowance no test shows is needed.

    python scripts/mutants.py --run

applies and runs every mutant and exits 1 unless the unmutated copy passes
and every mutant is killed.  Run with no arguments, it only checks that each
mutant's line is found exactly once in src/, which takes no time.  The tests
run under Hypothesis's derandomized "ci" profile, so each run draws the same
examples and writes no example database.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["tests/test_certificate.py", "tests/test_engine.py", "tests/test_bdp.py"]
REFERENCE_TESTS = (
    "not per_step_loop and not keeps_the_bits_of_the_row_loop"
    " and not tiny_row_on_huge_rates and not one_block_of_steps_at_a_time"
)
# (name, file under src/evoseries, the line as it is, the line mutated)
MUTANTS = [
    (
        "partial sum not shrunk by 1 - gamma",
        "engine.py",
        "    return partial * (1.0 - _gamma(order * (norms.shape[1] + 3) + 2))\n",
        "    return partial\n",
    ),
    (
        "primed norms without the recursion's slack",
        "engine.py",
        "    slack = 1.0 + _gamma(dim * norms.shape[1] + 2)\n",
        "    slack = 1.0\n",
    ),
    (
        "_norm_bounds without _up",
        "engine.py",
        "    return _up(_norms(mats, orientation), mats.shape[-1])\n",
        "    return _norms(mats, orientation)\n",
    ),
    (
        "_diagonal_norm_bounds without _up",
        "bdp.py",
        "    return np.moveaxis(_up(np.abs(diagonals).sum(axis=-2).max(axis=-1), 3), 0, -1)\n",
        "    return np.moveaxis(np.abs(diagonals).sum(axis=-2).max(axis=-1), 0, -1)\n",
    ),
]


def mutated(source: str, line: str, replacement: str, name: str) -> str:
    if source.count(line) != 1:
        raise SystemExit(f"mutant {name!r}: its line is in src/ {source.count(line)} times, not once")
    return source.replace(line, replacement)


def run_tests(src: Path) -> int:
    """pytest's exit code for TESTS against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    found = subprocess.run(
        [sys.executable, "-c", "import evoseries; print(evoseries.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(src):
        raise SystemExit(f"the tests would import evoseries from {found}, not from {src}")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-profile=ci", *TESTS, "-k", REFERENCE_TESTS,
    ]
    return subprocess.run(command, env=env, cwd=ROOT, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true", help="apply and run every mutant")
    args = parser.parse_args(argv)
    for name, module, line, replacement in MUTANTS:
        mutated((ROOT / "src" / "evoseries" / module).read_text(), line, replacement, name)
    if not args.run:
        print(f"{len(MUTANTS)} mutants, each line found once in src/")
        return 0
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        code = run_tests(src)
        print(f"unmutated: pytest exit {code}", flush=True)
        failed |= code != 0
        for name, module, line, replacement in MUTANTS:
            path = src / "evoseries" / module
            original = path.read_text()
            path.write_text(mutated(original, line, replacement, name))
            try:
                code = run_tests(src)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{name}: {verdict}", flush=True)
            failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
