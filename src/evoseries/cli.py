"""Command-line front end: every subsystem reachable as a subcommand.

Output is deterministic text: CSV with '.' decimals and ',' separators, or
fixed-width tables.  Floats print with 12 significant digits unless --digits
says otherwise; exact rationals print as num/den.  Every error path exits
nonzero after a single diagnostic line on stderr.

Handlers return their lines; main writes them with _emit, the one writer of stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import warnings
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import bdp as bdp_mod
from . import shift_algebra
from .combinatorics import (
    _refuse_over_budget,
    enumerate_index_set,
    enumerate_restricted_index_set,
    multinomial_pi_sum,
    pi_coefficient,
    pi_sum,
)
from .engine import (
    _BLOCK_DOUBLES,
    MatrixPolyCoefficients,
    Orientation,
    _horner,
    counterexample_report,
    solve_stepped,
)
from .matfile import load_coefficients
from .peano_baker import pb_equivalence_report
from .scalar import scalar_closed_form, scalar_coefficients

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse prints usage plus message on error; the contract here is one line.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _digits(text: str) -> int:
    """The --digits type: a count of significant digits from 1 to 17.

    17 significant digits round-trip a double, so more would print only
    the binary expansion's noise.
    """
    try:
        digits = int(text)
    except ValueError:
        digits = 0
    if not 1 <= digits <= 17:
        raise argparse.ArgumentTypeError(f"need an integer from 1 to 17, got {text!r}")
    return digits


def _fmt(x: float, digits: int) -> str:
    return f"{float(x):.{digits}g}"


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    """Write each line, or block of rows, and a newline as it comes, to out_path or stdout."""
    opened = nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8")
    with opened as handle:
        handle.writelines(line + "\n" for line in lines)


def _warn_after(message: str) -> Iterator[str]:
    """Chained after a handler's lines: prints message, if any, to stderr once they are written."""
    if message:
        print(message, file=sys.stderr)
    yield from ()


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _certified(header: str, digits: int, *columns: np.ndarray) -> Iterable[str]:
    """A certified CSV's lines: header, then the rows of columns, t first and the bound last.

    Each column, an entry or a row of entries a time, is read in place; a
    block of at most _BLOCK_DOUBLES cells (one row at least) is one % call,
    and '%.12g' % x is _fmt(x, 12).  Once the rows are written, a stderr
    line names the first time whose bound is not finite.
    """
    times, bounds = columns[0], columns[-1]
    lost = times[~np.isfinite(bounds)]
    warning = f"warning: certificate lost from t = {_fmt(lost[0], digits)}" if len(lost) else ""
    columns = [np.reshape(column, (len(times), -1)) for column in columns]
    width = sum(column.shape[1] for column in columns)
    row, size = ",".join([f"%.{digits}g"] * width), max(1, _BLOCK_DOUBLES // width)
    blocks = (np.hstack([c[i : i + size] for c in columns]) for i in range(0, len(times), size))
    text = ("\n".join([row] * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    return itertools.chain([header], text, _warn_after(warning))


def _load_poly(path: str, orientation: str) -> MatrixPolyCoefficients:
    mats = load_coefficients(path)
    return MatrixPolyCoefficients(tuple(mats), Orientation(orientation))


def _entry_headers(dim: int) -> list[str]:
    return [f"r_{i}_{j}" for i in range(1, dim + 1) for j in range(1, dim + 1)]


def cmd_coeffs(args) -> list[str]:
    n, q, p = args.n, args.q, args.p
    if p is None:
        indices = enumerate_index_set(n, q)
        what, cap = f"coeffs({n}, {q})", q
    else:
        indices = enumerate_restricted_index_set(n, q, p)
        what, cap = f"coeffs({n}, {q}, {p})", p
    _refuse_over_budget(what, n - q, q, cap)  # counted before a tuple is built
    rows = [["index", "pi", "running_sum"]]
    running = Fraction(0)
    for m in indices:
        pi = pi_coefficient(m)
        running += pi
        rows.append([" ".join(str(e) for e in m), _frac(pi), _frac(running)])
    return [",".join(row) for row in rows] if args.format == "csv" else _table(rows)


def cmd_pisum(args) -> list[str]:
    lhs = pi_sum(args.n, args.q, args.p)
    rhs = multinomial_pi_sum(args.n, args.q, args.p)
    verdict = "EQUAL" if lhs == rhs else "UNEQUAL"
    return [f"{_frac(lhs)}  {_frac(rhs)}  {verdict}"]


def _float_list(option: str, text: str) -> list[float]:
    """The floats of a comma-separated option value.

    Trailing commas are allowed; an empty field before a value is refused.
    """
    fields = text.rstrip(",").split(",")
    if "" in fields[:-1]:
        raise ValueError(f"{option}: field {fields.index('') + 1} of {text!r} is empty")
    return [float(tok) for tok in fields if tok]


def cmd_scalar(args) -> Iterable[str]:
    a = _float_list("--a", args.a)
    series = float(_horner(scalar_coefficients(a, args.order), args.t))
    with warnings.catch_warnings(record=True) as overflowed:
        warnings.simplefilter("always")
        closed = scalar_closed_form(a, args.t)
    values = {"series": series, "closed_form": closed, "abs_gap": abs(series - closed)}
    lines = [f"{name} {_fmt(value, args.digits)}" for name, value in values.items()]
    warning = "warning: closed-form value exceeds float range" if overflowed else ""
    return itertools.chain(lines, _warn_after(warning))


def cmd_solve(args) -> Iterable[str]:
    coeffs = _load_poly(args.coeffs, args.orientation)
    header = "t," + ",".join(_entry_headers(coeffs.dim)) + ",tail_bound"
    step = max(args.t, 1.0) if args.step is None else args.step
    traj = solve_stepped(coeffs, args.t, step, args.order)
    columns = (traj.times, traj.values, traj.tail_bounds)
    if args.step is None:  # one step, or the lone t = 0 point: print its end only
        columns = [column[-1:] for column in columns]
    return _certified(header, args.digits, *columns)


def cmd_compare_pb(args) -> list[str]:
    coeffs = _load_poly(args.coeffs, args.orientation)
    d = args.digits
    lines = ["degree,abs_gap,rel_gap"]
    for row in pb_equivalence_report(coeffs, args.order):
        lines.append(f"{row.degree},{_fmt(row.abs_gap, d)},{_fmt(row.rel_gap, d)}")
    return lines


def cmd_counterexample(args) -> list[str]:
    times = tuple(_float_list("--times", args.times))
    if not times:
        raise ValueError(f"--times: no time given in {args.times!r}")
    report = counterexample_report(
        times=times, order=args.order, h=args.h, exp_terms=args.terms
    )
    d = args.digits
    rows = [["t", "series_residual", "exponential_residual", "ratio"]]
    for row in report:
        rows.append(
            [
                _fmt(row.t, d),
                _fmt(row.series_residual, d),
                _fmt(row.exponential_residual, d),
                _fmt(row.ratio, d),
            ]
        )
    return _table(rows)


def _shift_poly_lines(poly: shift_algebra.ShiftPolynomial) -> list[str]:
    return [f"{_frac(coeff)} * S^{s} U^{k}" for (s, k), coeff in poly.terms] or ["0"]


def cmd_algebra_reduce(args) -> list[str]:
    return _shift_poly_lines(shift_algebra.reduce(args.word))


def cmd_algebra_group(args) -> list[str]:
    return _shift_poly_lines(shift_algebra.binomial_group(args.m, args.j).combined())


def _rational(option: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option}: {text!r} is not a rational number") from None


def cmd_algebra_power(args) -> list[str]:
    lam = _rational("--lam", args.lam)
    mu = _rational("--mu", args.mu)
    return _shift_poly_lines(shift_algebra.power_expand(args.k, lam, mu))


def cmd_bdp(args) -> Iterable[str]:
    spec = bdp_mod.BirthDeathSpec(
        lam=(args.lam0, args.lam1),
        mu=(args.mu0, args.mu1),
        states=args.states,
        boundary=bdp_mod.Boundary(args.boundary),
    )
    traj, _ = bdp_mod.solve_bdp(spec, args.T, args.steps, args.order)
    header = "t," + ",".join(f"p_{i}" for i in range(1, spec.states + 1)) + ",leakage,tail_bound"
    columns = (traj.times, traj.distributions, traj.leakage, traj.tail_bounds)
    return _certified(header, args.digits, *columns)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared after it."""
    # The help text is the docstring's user-facing part, before its last paragraph.
    parser = _Parser(prog="evoseries", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="index set with exact weights and running sum")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--p", type=int, default=None, help="restrict entries to at most p")
    p.add_argument("--format", choices=("table", "csv"), default="table")

    p = sub.add_parser("pisum", help="weight sum two ways plus verdict")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)

    p = sub.add_parser("scalar", help="scalar series value vs closed form")
    p.add_argument("--a", required=True, help="comma-separated coefficients a_0,a_1,...")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--digits", type=_digits, default=12)

    p = sub.add_parser("solve", help="solve the matrix evolution equation")
    p.add_argument("--coeffs", required=True, help="matrix polynomial file")
    p.add_argument("--orientation", choices=("left", "right"), default="left")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV path, stdout when omitted")
    p.add_argument("--digits", type=_digits, default=12)

    p = sub.add_parser("compare-pb", help="iterated-integral vs recursion gap per degree")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--orientation", choices=("left", "right"), default="left")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--digits", type=_digits, default=12)

    p = sub.add_parser(
        "counterexample",
        help="residuals: series solution vs exponentiated antiderivative",
    )
    p.add_argument("--times", default="0.25,0.5,0.75,1.0")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--digits", type=_digits, default=12)

    p = sub.add_parser("algebra", help="shift-operator normal forms")
    alg = p.add_subparsers(dest="algebra_command", required=True)
    q = alg.add_parser("reduce", help="canonical form of a word over U, S")
    q.add_argument("word")
    q = alg.add_parser("group", help="interleaving sum of m U atoms and j S U atoms")
    q.add_argument("m", type=int)
    q.add_argument("j", type=int)
    q = alg.add_parser("power", help="expand (lam U - mu S U)^k")
    q.add_argument("k", type=int)
    q.add_argument("--lam", default="1")
    q.add_argument("--mu", default="1")

    p = sub.add_parser("bdp", help="birth-death transient distribution")
    p.add_argument("--lam0", type=float, default=1.0)
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--lam1", type=float, default=0.5)
    p.add_argument("--mu1", type=float, default=0.5)
    p.add_argument("--states", type=int, default=50)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--boundary", choices=("absorb", "raw"), default="absorb")
    p.add_argument("--out", default=None)
    p.add_argument("--digits", type=_digits, default=12)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its one line
        return int(exc.code or 0)
    # Found by name at each call, so a rebound cmd_* function is the one that runs.
    command = "_".join(filter(None, (args.command, vars(args).get("algebra_command"))))
    handler = globals()["cmd_" + command.replace("-", "_")]
    try:
        _emit(handler(args), vars(args).get("out"))
    except Exception as exc:  # contract: one diagnostic line, nonzero exit
        # An exception with no message, such as MemoryError, is named by its type.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
