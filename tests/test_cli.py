import ast
import math
import os
import resource
import subprocess
import sys
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from evoseries import cli
from evoseries.bdp import BirthDeathSpec, solve_bdp
from evoseries.cli import _load_poly, build_parser, main
from evoseries.engine import solve_stepped
from evoseries.shift_algebra import POWER_GUARD

EXAMPLE_MAT = """\
1 -1 2
1 -2 1
2 1 1

2 1 3
-2 1 2
-3 2 1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pisum_golden_line(capsys):
    code, out, err = run_cli(capsys, "pisum", "7", "2", "1")
    assert code == 0 and err == ""
    assert out == "1/48  1/48  EQUAL\n"


def test_pisum_over_the_budget_single_error_line(capsys):
    # One tuple, but 2000 * 2001 * 2 multiply-adds of integers of up to 750
    # words, which take seconds: refused from their count, before any of them.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pisum", "4000", "2000", "1")
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == ""
    assert err == (
        "error: pi_sum(4000, 2000, 1) needs 6003000000 word multiply-adds,"
        " over the cap of 1000000\n"
    )


def test_pisum_of_a_set_of_many_tuples_but_little_work_is_admitted(capsys):
    # 22 597 760 tuples, which the recursion never visits: 15 * 16 * 4 multiply-adds.
    code, out, err = run_cli(capsys, "pisum", "30", "15", "3")
    assert code == 0 and err == ""
    assert out == "320346251/77129772643123200  320346251/77129772643123200  EQUAL\n"


def test_pisum_with_a_degree_above_the_total_index_finishes_at_once():
    # Enumerating all 13 exponent counts would visit C(31, 12) = 141 120 525
    # vectors; only the first two can be nonzero.
    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", "pisum", "20", "1", "12"],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "1/12804747411456000  1/12804747411456000  EQUAL\n"


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "7", "2", "--p", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,pi,running_sum"
    assert lines[1] == "0 0 0 1 1,1/1680,1/1680"
    assert lines[-1] == "1 1 0 0 0,1/210,1/48"
    assert len(lines) == 11


def test_coeffs_table_and_full_set(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "4", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["index", "pi", "running_sum"]
    assert len(lines) == 4  # three indices in the unrestricted (4, 2) set


def test_coeffs_rejects_bad_index(capsys):
    code, _, err = run_cli(capsys, "coeffs", "3", "5")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_scalar_output(capsys):
    code, out, _ = run_cli(capsys, "scalar", "--a", "1,1", "--t", "0.5", "--order", "30")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert set(lines) == {"series", "closed_form", "abs_gap"}
    assert float(lines["abs_gap"]) < 1e-12
    assert float(lines["series"]) == pytest.approx(np.exp(0.625), rel=1e-10)


def test_scalar_refuses_an_empty_coefficient_field(capsys):
    code, out, err = run_cli(capsys, "scalar", "--a", "1,,2", "--t", "0.5")
    assert code == 1 and out == ""
    assert err == "error: --a: field 2 of '1,,2' is empty\n"
    # Trailing commas still end the list: the output is that of --a 1,2.
    results = [run_cli(capsys, "scalar", "--a", a, "--t", "0.5") for a in ("1,2", "1,2,", "1,2,,")]
    assert results[0][0] == 0 and results[1:] == results[:1] * 2


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("scalar", "--a", "1,1", "--t", "nan"), "time must be finite"),
        (("scalar", "--a", "1,nan", "--t", "0.5"), "a_1 must be finite"),
        (("counterexample", "--h", "nan", "--times", "0.5"), "step must be finite"),
    ],
)
def test_non_finite_scalar_or_counterexample_single_error_line(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and bad in err and err.count("\n") == 1
    assert err.rstrip().endswith("nan")  # the message names the bad value


@pytest.mark.parametrize("time", ["1e100", "1e200"])
def test_counterexample_overflowing_time_single_error_line(capsys, time):
    # 1e100 overflows the series value, 1e200 already t^2 in exp(B(t)).
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        code, out, err = run_cli(capsys, "counterexample", "--times", time)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(float(time)) in err and err.count("\n") == 1
    assert "(34," not in err  # no errno tuple


def test_solve_lost_certificate_warns_once(tmp_path):
    # A subprocess, so numpy's own warnings would show on stderr as a user sees them.
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    argv = ["solve", "--coeffs", str(path), "--t", "1e8", "--order", "40"]
    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: certificate lost from t = 100000000\n"
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 2 and rows[1].endswith(",inf")


def run_subprocess(*argv):
    # A subprocess, so Python's and numpy's warnings show on stderr as a user sees them.
    return subprocess.run(
        [sys.executable, "-m", "evoseries", *argv], capture_output=True, text=True
    )


def test_scalar_overflowing_closed_form_warns_in_one_line():
    proc = run_subprocess("scalar", "--a", "1,1", "--t", "1e300")
    assert proc.returncode == 0
    assert proc.stdout == "series inf\nclosed_form inf\nabs_gap nan\n"
    assert proc.stderr == "warning: closed-form value exceeds float range\n"


def test_solve_overflowing_series_is_one_error_line(tmp_path):
    path = tmp_path / "big.mat"
    path.write_text("1e200 0\n0 1e200\n")
    proc = run_subprocess("solve", "--coeffs", str(path), "--t", "1", "--order", "5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: the series overflows on the step from t = 0.0\n"


def test_solve_overflowing_family_norm_only_warns_of_the_lost_certificate(tmp_path):
    # The row sums of 1e308 entries overflow in the family's norm: the
    # certificate is lost in one line, with no numpy warning before it.
    path = tmp_path / "huge.mat"
    path.write_text("1e308 1e308\n1e308 1e308\n")
    proc = run_subprocess("solve", "--coeffs", str(path), "--t", "0.5", "--order", "1")
    assert proc.returncode == 0
    assert proc.stdout == "t,r_1_1,r_1_2,r_2_1,r_2_2,tail_bound\n0.5,5e+307,5e+307,5e+307,5e+307,inf\n"
    assert proc.stderr == "warning: certificate lost from t = 0.5\n"


@pytest.mark.parametrize("t, order", [("0", "-5"), ("0", "0"), ("1", "0")])
def test_solve_refuses_an_order_below_one_at_every_time(tmp_path, t, order):
    # The lone t = 0 point is refused too, not printed as a table.
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    proc = run_subprocess("solve", "--coeffs", str(path), "--t", t, "--order", order)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: series order must be >= 1, got {order}\n"


def test_solve_overflowing_shift_is_one_error_line(tmp_path):
    # Recentered at the second step's start 1e119, the cubic term needs
    # t0^3 = 1e357, past the float range: the step is refused, not an OverflowError.
    path = tmp_path / "cubic.mat"
    path.write_text("1\n\n1\n\n1\n\n1\n")
    proc = run_subprocess("solve", "--coeffs", str(path), "--t", "1e120", "--step", "1e119")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: the series overflows on the step from t = 1e+119\n"


def test_solve_overflowing_product_only_warns_of_the_lost_certificate(tmp_path):
    # The composed propagator overflows from the second step on.
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    argv = ["--t", "1e8", "--step", "1e7", "--order", "10"]
    proc = run_subprocess("solve", "--coeffs", str(path), *argv)
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 12
    assert proc.stderr == "warning: certificate lost from t = 10000000\n"


def test_solve_lost_certificate_names_first_lost_time(capsys, tmp_path):
    # Over the first step the norms 4 and 7 of A_0 and A_1 integrate to
    # 4 * 10 + 3.5 * 10^2 = 390, whose exp is finite; recentered at t = 10 the
    # norms are 68 and 7, and exp(680 + 350) overflows.
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    code, out, err = run_cli(
        capsys, "solve", "--coeffs", str(path), "--t", "70", "--step", "10", "--order", "10"
    )
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 9 and not lines[2].endswith(",inf")
    assert err == "warning: certificate lost from t = 20\n"
    code, _, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "0.2")
    assert code == 0 and err == ""  # a finite bound prints no warning


def test_solve_past_float_range_is_inf_not_error(capsys, tmp_path):
    # exp(5 t + 0.001 t^2 / 2) = e^761 at t = 150 exceeds the float range
    path = tmp_path / "one.mat"
    path.write_text("5\n\n0.001\n")
    code, out, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "150")
    assert code == 0 and out.strip().splitlines()[1].endswith(",inf")
    assert err == "warning: certificate lost from t = 150\n"


def test_solve_zero_family_is_identity(capsys, tmp_path):
    path = tmp_path / "zero.mat"
    path.write_text("0 0\n0 0\n")
    code, out, _ = run_cli(capsys, "solve", "--coeffs", str(path), "--order", "5", "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r_1_1,r_1_2,r_2_1,r_2_2,tail_bound"
    assert lines[1] == "1,1,0,0,1,0"


def test_solve_stepped_csv(capsys, tmp_path):
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    code, out, _ = run_cli(
        capsys,
        "solve", "--coeffs", str(path), "--order", "20", "--t", "1",
        "--step", "0.25", "--out", str(tmp_path / "run.csv"),
    )
    assert code == 0 and out == ""
    lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + grid 0, .25, .5, .75, 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:10]] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_solve_missing_file_single_error_line(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "solve", "--coeffs", str(tmp_path / "nope.mat"), "--t", "1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_malformed_file_single_error_line(capsys, tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("1 2\n3 oops\n")
    code, _, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "1")
    assert code == 1
    assert err.startswith("error:") and ":2:" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 3\n4 5 6\n", "bad.mat:1: block is 2x3, not square"),
        ("1 0\n0 1\n\n1 0 0\n0 1 0\n0 0 1\n", "bad.mat:4: block is 3x3, the first is 2x2"),
        ("1 0\n0 1\n\n\n1 2\n", "bad.mat:5: block is 1x2, not square"),
    ],
)
def test_solve_badly_shaped_block_names_file_and_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.mat"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "1")
    assert code == 1 and out == ""
    assert err == f"error: {tmp_path / message}\n"


def test_solve_non_finite_file_single_error_line(capsys, tmp_path):
    path = tmp_path / "nan.mat"
    path.write_text("1 0\n0 nan\n")
    code, out, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and ":2:" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (("--t", "1", "--step", "inf"), "step"),
        (("--t", "1", "--step", "nan"), "step"),
        (("--t", "nan"), "time"),
    ],
)
def test_solve_non_finite_step_or_time_single_error_line(capsys, tmp_path, argv, quantity):
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    code, out, err = run_cli(capsys, "solve", "--coeffs", str(path), *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {quantity} must be finite") and err.count("\n") == 1
    assert err.rstrip().endswith(argv[-1])  # the message names the bad value


def test_compare_pb_csv(capsys, tmp_path):
    path = tmp_path / "example.mat"
    path.write_text(EXAMPLE_MAT)
    code, out, _ = run_cli(capsys, "compare-pb", "--coeffs", str(path), "--order", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,abs_gap,rel_gap"
    assert len(lines) == 12
    for line in lines[1:]:
        degree, abs_gap, rel_gap = line.split(",")
        assert float(rel_gap) < 1e-12


def test_counterexample_table(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["t", "series_residual", "exponential_residual", "ratio"]
    assert len(lines) == 5
    last = lines[-1].split()
    assert float(last[0]) == 1.0
    # thresholds recorded from the first run: series 1.04e-8, exponential 0.359
    assert float(last[1]) < 2e-8
    assert float(last[2]) > 1e-2
    assert float(last[3]) > 1e3


def test_algebra_reduce_lines(capsys):
    code, out, _ = run_cli(capsys, "algebra", "reduce", "US")
    assert code == 0
    assert out == "1/1 * S^0 U^0\n-1/1 * S^1 U^0\n"


def test_algebra_reduce_long_word_in_a_subprocess():
    # U^40 S^40 = (I - S)^40: one line a power of S, in seconds, not hours.
    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", "algebra", "reduce", "U" * 40 + "S" * 40],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 41
    assert lines[40] == "1/1 * S^40 U^0"
    assert lines[20] == f"{math.comb(40, 20)}/1 * S^20 U^0"


def test_algebra_group_lines(capsys):
    code, out, _ = run_cli(capsys, "algebra", "group", "2", "2")
    assert code == 0
    assert out.splitlines() == [
        "-3/1 * S^0 U^1",
        "3/1 * S^0 U^2",
        "6/1 * S^1 U^1",
        "-5/1 * S^1 U^2",
        "3/1 * S^1 U^3",
        "-3/1 * S^2 U^1",
        "2/1 * S^2 U^2",
        "-1/1 * S^2 U^3",
    ]


def test_algebra_power_lines(capsys):
    code, out, _ = run_cli(capsys, "algebra", "power", "1", "--lam", "2", "--mu", "1/3")
    assert code == 0
    assert out == "2/1 * S^0 U^1\n-1/3 * S^1 U^1\n"


def test_algebra_guard_single_error_line(capsys):
    code, _, err = run_cli(capsys, "algebra", "power", str(POWER_GUARD + 1))
    assert code == 1
    k = POWER_GUARD + 1
    assert err == f"error: (lam U - mu S U)^{k} needs {k} factors, over the cap of {POWER_GUARD}\n"


@pytest.mark.parametrize("option", ["--lam", "--mu"])
@pytest.mark.parametrize("value", ["1/0", "nan", "abc"])
def test_algebra_power_bad_rational_single_error_line(capsys, option, value):
    code, out, err = run_cli(capsys, "algebra", "power", "3", f"{option}={value}")
    assert code == 1 and out == ""
    assert err == f"error: {option}: {value!r} is not a rational number\n"


def test_bdp_csv(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys,
        "bdp", "--lam0", "1", "--mu0", "1", "--lam1", "0.5", "--mu1", "0.5",
        "--states", "30", "--T", "0.5", "--steps", "5", "--order", "20",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t," + ",".join(f"p_{i}" for i in range(1, 31)) + ",leakage,tail_bound"
    assert len(lines) == 7
    final = [float(v) for v in lines[-1].split(",")]
    assert final[0] == 0.5
    assert abs(sum(final[1:-2]) - 1.0) < 1e-9
    assert final[-2] < 1e-9
    assert math.isfinite(final[-1]) and final[-1] < 1e-9  # the accumulated certificate


def test_bdp_rejects_bad_rate(capsys):
    code, _, err = run_cli(capsys, "bdp", "--lam0", "0")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_bdp_non_finite_rate_names_it(capsys):
    code, out, err = run_cli(capsys, "bdp", "--mu1", "nan")
    assert code == 1 and out == ""
    assert err.startswith("error: mu rates must be finite") and err.count("\n") == 1


def test_solve_overflowed_composition_prints_inf_not_nan(capsys, tmp_path):
    # From the third step the composed value has NaN entries (inf - inf);
    # its bound is still inf.
    path = tmp_path / "big.mat"
    path.write_text("1e200 -1e200\n1e200 1e200\n")
    code, out, err = run_cli(
        capsys, "solve", "--coeffs", str(path), "--t", "4", "--step", "1", "--order", "1"
    )
    rows = out.strip().splitlines()[1:]
    assert code == 0 and rows[-1] == "4,nan,nan,nan,nan,inf"
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0", "inf", "inf", "inf", "inf"]
    assert err == "warning: certificate lost from t = 1\n"


@pytest.mark.parametrize("rate", ["--lam0", "--lam1"])
def test_bdp_overflowing_series_single_error_line(rate):
    # A subprocess, so numpy's own warnings would show on stderr as a user sees them.
    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", "bdp", "--states", "5", rate, "1e300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: the series overflows on the step from t = ")
    assert proc.stderr.count("\n") == 1


def test_bdp_overflowing_family_norm_single_error_line():
    # The generator's norm overflows before the series does: one error line,
    # with no numpy warning before it.
    proc = run_subprocess("bdp", "--lam0", "1e308", "--T", "1", "--steps", "1", "--states", "3")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: the series overflows on the step from t = 0.0\n"


def test_bdp_over_the_doubles_cap_single_error_line(capsys):
    # A billion states would need 8 GB for each row: refused before any array.
    code, out, err = run_cli(capsys, "bdp", "--states", "1000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: 1000000000 states over ") and err.count("\n") == 1


@pytest.mark.parametrize("order", ["0", "-1"])
def test_bdp_order_below_one_single_error_line(capsys, order):
    code, out, err = run_cli(capsys, "bdp", "--order", order)
    assert code == 1 and out == ""
    assert err == f"error: series order must be >= 1, got {order}\n"


def test_bdp_lost_certificate_warns_once(capsys):
    # exp of the majorant's integral overflows over one step of 60
    code, out, err = run_cli(
        capsys, "bdp", "--states", "10", "--T", "60", "--steps", "1", "--order", "5"
    )
    assert code == 0 and out.strip().splitlines()[-1].endswith(",inf")
    assert err == "warning: certificate lost from t = 60\n"


def test_usage_error_is_single_line(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_positionals_single_error_line(capsys):
    code, _, err = run_cli(capsys, "coeffs")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-3", "x", "18", "40", "99999999999999999999", "1000000000"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scalar", "--a", "1", "--t", "1"],
        ["solve", "--coeffs", "A.mat", "--t", "1"],
        ["compare-pb", "--coeffs", "A.mat"],
        ["counterexample"],
        ["bdp"],
    ],
    ids=lambda argv: argv[0],
)
def test_digits_below_one_is_a_usage_error_naming_it(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--digits", value)
    assert code == 2 and out == ""
    assert err == f"error: argument --digits: need an integer from 1 to 17, got {value!r}\n"


def test_an_exception_without_a_message_is_named_by_its_type(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_scalar", out_of_memory)
    code, out, err = run_cli(capsys, "scalar", "--a", "1", "--t", "1")
    assert code == 1 and out == ""
    assert err == "error: MemoryError\n"


@pytest.mark.parametrize("times", [",", ""])
def test_counterexample_empty_times_single_error_line(capsys, times):
    code, out, err = run_cli(capsys, "counterexample", "--times", times)
    assert code == 1 and out == ""
    assert err == f"error: --times: no time given in {times!r}\n"


@pytest.mark.parametrize(("times", "field"), [("1,,2", 2), (",1", 1), ("0.5,1,,", None), ("1,2,,3,", 3)])
def test_counterexample_refuses_an_empty_time_field(capsys, times, field):
    code, out, err = run_cli(capsys, "counterexample", "--times", times, "--order", "10")
    if field is None:
        # Trailing commas still end the list: the output is that of --times 0.5,1.
        assert (code, out, err) == run_cli(capsys, "counterexample", "--times", "0.5,1", "--order", "10")
        assert code == 0
    else:
        assert code == 1 and out == ""
        assert err == f"error: --times: field {field} of {times!r} is empty\n"


def per_row_csv(header: str, table: np.ndarray, digits: int) -> str:
    """The certified CSV formatted one cell at a time, as _fmt formats a float."""
    rows = [",".join(f"{float(x):.{digits}g}" for x in row) for row in table.tolist()]
    return "\n".join([header, *rows]) + "\n"


def certified_table(digits: int) -> np.ndarray:
    """Seven rows of six cells, t first and the bound last, lost from the sixth time on."""
    rng = np.random.default_rng(digits)
    table = rng.standard_normal((7, 6)) * 10.0 ** rng.integers(-320, 300, (7, 6))
    table[1, 1:3] = -0.0, 0.0
    table[2, 2], table[3, 3] = math.inf, -math.inf
    table[4, 1] = math.nan
    table[5:, -1] = math.inf
    table[:, 0] = [0.0, 0.125, 0.25, 1 / 3, 0.5, 1e-7, 123456789.0]
    return table


@pytest.mark.parametrize("digits", [1, 12, 17])
@pytest.mark.parametrize("header", ["t,r_1_1,r_1_2,r_2_1,r_2_2,tail_bound", "t,p_1,p_2,p_3,leakage,tail_bound"])
def test_certified_table_is_one_format_call_with_the_per_cell_text(capsys, header, digits):
    table = certified_table(digits)
    cli._emit(cli._certified(header, digits, *table.T), None)
    out, err = capsys.readouterr()
    assert out == per_row_csv(header, table, digits)
    assert err == f"warning: certificate lost from t = {1e-7:.{digits}g}\n"


@pytest.mark.parametrize(("cells", "blocks"), [(1, 7), (6, 7), (13, 4), (41, 2), (42, 1)])
def test_certified_rows_in_several_blocks_keep_the_per_cell_text(capsys, monkeypatch, cells, blocks):
    # A block of fewer cells than a row still holds one row; 13 cells hold two.
    monkeypatch.setattr(cli, "_BLOCK_DOUBLES", cells)
    table = certified_table(17)
    header = "t,r_1_1,r_1_2,r_2_1,r_2_2,tail_bound"
    lines = list(cli._certified(header, 17, table[:, 0], table[:, 1:5].reshape(7, 2, 2), table[:, 5]))
    assert len(lines) == 1 + blocks and capsys.readouterr().err.startswith("warning: certificate lost")
    cli._emit(lines, None)
    assert capsys.readouterr().out == per_row_csv(header, table, 17)


@pytest.mark.parametrize("digits", ["1", "17"])
def test_solve_and_bdp_csv_bytes_equal_per_cell_formatting(capsys, tmp_path, digits):
    coeff_file = tmp_path / "a.mat"
    coeff_file.write_text("300 1\n0 -0.5\n\n0 0\n-1 0\n")  # the certificate is lost at t = 3
    code, out, err = run_cli(
        capsys, "solve", "--coeffs", str(coeff_file), "--t", "4", "--step", "1", "--order", "30",
        "--digits", digits,
    )
    traj = solve_stepped(_load_poly(str(coeff_file), "left"), 4.0, 1.0, 30)
    rows = zip(traj.times, traj.values, traj.tail_bounds)
    table = np.array([[t, *value.ravel(), bound] for t, value, bound in rows])
    assert code == 0 and out == per_row_csv("t,r_1_1,r_1_2,r_2_1,r_2_2,tail_bound", table, int(digits))
    assert np.isinf(table[-1]).any() and err.startswith("warning: certificate lost")
    code, out, _ = run_cli(capsys, "bdp", "--states", "4", "--steps", "3", "--digits", digits)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=4)
    traj, _ = solve_bdp(spec, 1.0, 3, 30)
    columns = (traj.times, traj.distributions, traj.leakage, traj.tail_bounds)
    header = "t,p_1,p_2,p_3,p_4,leakage,tail_bound"
    assert code == 0 and out == per_row_csv(header, np.column_stack(columns), int(digits))


def test_lost_certificate_with_an_unwritable_out_is_one_error_line(capsys, tmp_path):
    # The warning follows the rows it qualifies: rows never written get none.
    path = tmp_path / "lost.mat"
    path.write_text("300 1\n0 -0.5\n\n0 0\n-1 0\n")
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys, "solve", "--coeffs", str(path), "--t", "4", "--step", "1", "--order", "30",
        "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


def test_the_cli_holds_the_trajectory_and_one_block(tmp_path):
    # The CSV is formatted from the trajectory's columns a block at a time,
    # so the CLI peaks near the solve itself; a table of the whole
    # trajectory and the CSV as one string took it to 5.9 times that.
    path = tmp_path / "small.mat"
    rows = (" ".join("1e-4" if j == i else "0" for j in range(12)) for i in range(12))
    path.write_text("\n".join(rows) + "\n")
    argv = ["solve", "--coeffs", str(path), "--step", "1", "--out", str(tmp_path / "r.csv")]
    coeffs = _load_poly(str(path), "left")
    assert main([*argv, "--t", "2"]) == 0  # imports and caches outside the measured runs
    peaks = []
    for run in (lambda: solve_stepped(coeffs, 5000.0, 1.0, 20), lambda: main([*argv, "--t", "5000"])):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "r.csv").read_text().count("\n") == 5002
    assert peaks[1] <= 1.5 * peaks[0], [peak / 1e6 for peak in peaks]


def test_only_emit_writes_stdout():
    # Every handler returns its lines; main hands them to _emit, the one writer.
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    writers = {f.name for f in functions if "sys.stdout" in ast.unparse(f)}
    callers = [
        f.name for f in functions for node in ast.walk(f)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_emit"
    ]
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
    ]
    assert writers == {"_emit"} and callers == ["main"]
    assert prints and all("file=sys.stderr" in ast.unparse(node) for node in prints)


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "algebra", "power", "4", "--lam", "3", "--mu", "2")
    _, second, _ = run_cli(capsys, "algebra", "power", "4", "--lam", "3", "--mu", "2")
    assert first == second


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", "pisum", "7", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/48  1/48  EQUAL\n"


def test_main_runs_the_handler_bound_when_it_is_called(capsys, monkeypatch, tmp_path):
    # A wrapper rebound after the shared parser is built, as a tracer's is, must run.
    build_parser()
    calls = []

    def wrapper(args):
        calls.append(args.t)
        return original(args)

    original = cli.cmd_solve
    monkeypatch.setattr(cli, "cmd_solve", wrapper)
    path = tmp_path / "a.txt"
    path.write_text(EXAMPLE_MAT)
    code, out, err = run_cli(capsys, "solve", "--coeffs", str(path), "--t", "0.5")
    assert calls == [0.5]
    assert code == 0 and err == "" and out.startswith("t,r_1_1,")


def test_shared_parser_matches_a_fresh_process(capsys, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(EXAMPLE_MAT)
    runs = [
        ["solve", "--coeffs", str(path), "--t", "1", "--step", "0.25"],
        ["solve", "--coeffs", str(path), "--t", "0.5", "--orientation", "right"],
        ["solve", "--coeffs", str(path), "--t", "soon"],
        ["bdp", "--states", "5", "--steps", "3", "--boundary", "raw"],
    ]
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "evoseries", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser() is build_parser()


# One row for every cap: a command over it and the one line it exits 1 with.
# README.md's cap table quotes these lines.  A.mat is EXAMPLE_MAT and I12.mat
# the 12 x 12 identity.
CAP_REFUSALS = [
    (
        ["scalar", "--a", "1,1", "--t", "0.5", "--order", "100000000"],
        "error: series order 100000000 needs 200000000 products, over the cap of 1000000",
    ),
    (
        ["solve", "--coeffs", "A.mat", "--t", "1", "--order", "100000000"],
        "error: series order 100000000 needs 900000009 doubles of terms,"
        " over the cap of 134217728",
    ),
    (
        ["solve", "--coeffs", "A.mat", "--t", "1", "--order", "10000000"],
        "error: series order 10000000 needs 20000000 products, over the cap of 1000000",
    ),
    (
        ["compare-pb", "--coeffs", "A.mat", "--order", "100000"],
        "error: Peano-Baker order 100000 needs 15000100000 matrix products,"
        " over the cap of 1000000",
    ),
    (
        ["counterexample", "--order", "10000000"],
        "error: counterexample with 40 Taylor terms, order 10000000 and 4 times"
        " needs 120000480 matrix products, over the cap of 1000000",
    ),
    pytest.param(
        ["counterexample", "--terms", "100000000"],
        "error: counterexample with 100000000 Taylor terms, order 30 and 4 times"
        " needs 1200000360 matrix products, over the cap of 1000000",
        id="counterexample-terms",
    ),
    (
        ["bdp", "--order", "1000000"],
        "error: series order 1000000 needs 2000000 products, over the cap of 1000000",
    ),
    pytest.param(
        ["solve", "--coeffs", "A.mat", "--t", "1", "--step", "1e-7"],
        "error: final time 1.0 over step 1e-07 needs 10000000 steps, over the cap of 1000000",
        id="solve-step",
    ),
    pytest.param(
        ["bdp", "--states", "1000000000"],
        "error: 1000000000 states over 20 steps needs 89875003216 doubles,"
        " over the cap of 134217728",
        id="bdp-states",
    ),
    # At MAX_STEPS itself, a (10^6 + 1, 12, 12) stack of values: allocated
    # before the stepped solve counted its peak, refused now.
    pytest.param(
        ["solve", "--coeffs", "I12.mat", "--t", "1000000", "--step", "1"],
        "error: 12x12 propagators over 1000000 steps needs 176132712 doubles,"
        " over the cap of 134217728",
        id="solve-stack",
    ),
    pytest.param(
        ["algebra", "power", "33"],
        "error: (lam U - mu S U)^33 needs 33 factors, over the cap of 32",
        id="algebra-power",
    ),
    pytest.param(
        ["algebra", "group", "20", "13"],
        "error: binomial_group(20, 13) needs 33 atoms, over the cap of 32",
        id="algebra-group",
    ),
    pytest.param(  # C(29, 14) tuples, counted before any row is built
        ["coeffs", "30", "15"],
        "error: coeffs(30, 15) needs 77558760 index tuples, over the cap of 1000000",
        id="coeffs",
    ),
    pytest.param(
        ["pisum", "4000", "2000", "1"],
        "error: pi_sum(4000, 2000, 1) needs 6003000000 word multiply-adds,"
        " over the cap of 1000000",
        id="pisum",
    ),
    # Admitted before pi_sum weighed its multiply-adds by the words of its
    # integers, and then took 0.3-0.9 s; refused now.
    pytest.param(
        ["pisum", "250000", "1", "1"],
        "error: pi_sum(250000, 1, 1) needs 70312718748 word multiply-adds,"
        " over the cap of 1000000",
        id="pisum-long-integers",
    ),
    pytest.param(
        ["pisum", "1400", "700", "1"],
        "error: pi_sum(1400, 700, 1) needs 236517400 word multiply-adds,"
        " over the cap of 1000000",
        id="pisum-long-integers-many-steps",
    ),
    # Admitted before the report counted its three evaluations a time, and
    # then ran for seconds.
    pytest.param(
        ["counterexample", "--terms", "1000000", "--times", "0.5"],
        "error: counterexample with 1000000 Taylor terms, order 30 and 1 times"
        " needs 3000090 matrix products, over the cap of 1000000",
        id="counterexample-one-time",
    ),
]


@pytest.mark.parametrize(
    "argv, want", CAP_REFUSALS, ids=lambda value: value[0] if isinstance(value, list) else ""
)
def test_huge_orders_are_counted_and_refused_in_one_line(tmp_path, argv, want):
    # Each route counts its own work before it starts.  A subprocess with a
    # timeout and 1 GiB of address space, the cap itself, so work that is
    # not counted, or memory taken before the count, fails the test instead
    # of hanging it or taking the runner's memory.
    identity = "\n".join(" ".join("1" if j == i else "0" for j in range(12)) for i in range(12))
    files = {"A.mat": EXAMPLE_MAT, "I12.mat": identity + "\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "evoseries", *argv], capture_output=True, text=True, timeout=20,
        preexec_fn=limit_memory, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want + "\n")


def test_readme_cap_table_quotes_the_refusals():
    # Each example of README.md's cap table, `command` -> `error: ...`, is a
    # row of CAP_REFUSALS, which test_huge_orders_are_counted_and_refused_in_one_line runs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quoted = re.findall(r"`([a-z-]+ [^`]*)` → `(error: [^`]*)`", readme)
    table = {}
    for row in CAP_REFUSALS:
        argv, want = row.values if hasattr(row, "values") else row
        table[" ".join(argv)] = want
    assert len(quoted) >= 10
    for command, line in quoted:
        assert table[command] == line, command
