import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from evoseries.cli import build_parser, main
from evoseries.matfile import format_coefficients
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
    assert err.startswith("error:") and "guard" in err and err.count("\n") == 1


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
