"""Command-line front end: every subsystem reachable as a subcommand.

Output is deterministic text: CSV with '.' decimals and ',' separators, or
fixed-width tables.  Floats print with 12 significant digits unless --digits
says otherwise; exact rationals print as num/den.  Every error path exits
nonzero after a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import bdp as bdp_mod
from . import shift_algebra
from .combinatorics import (
    enumerate_index_set,
    enumerate_restricted_index_set,
    multinomial_pi_sum,
    pi_coefficient,
    pi_sum,
)
from .engine import (
    MatrixPolyCoefficients,
    Orientation,
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


def _fmt(x: float, digits: int) -> str:
    return f"{float(x):.{digits}g}"


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _emit_certified(
    header: str, rows: list[list[float]], digits: int, out_path: str | None
) -> None:
    """A CSV table of floats, t first and the certified bound last, then _warn_if_lost.

    Each row is one format call, every cell printed as _fmt prints it.
    """
    row = ",".join([f"{{:.{digits}g}}"] * (header.count(",") + 1))
    _emit([header, *(row.format(*cells) for cells in rows)], out_path)
    _warn_if_lost([cells[0] for cells in rows], [cells[-1] for cells in rows], digits)


def _warn_if_lost(times, bounds, digits: int) -> None:
    """One stderr line naming the first time whose certified bound is not finite."""
    lost = [t for t, bound in zip(times, bounds) if not math.isfinite(bound)]
    if lost:
        print(f"warning: certificate lost from t = {_fmt(lost[0], digits)}", file=sys.stderr)


def _load_poly(path: str, orientation: str) -> MatrixPolyCoefficients:
    mats = load_coefficients(path)
    return MatrixPolyCoefficients(tuple(mats), Orientation(orientation))


def _entry_headers(dim: int) -> list[str]:
    return [f"r_{i}_{j}" for i in range(1, dim + 1) for j in range(1, dim + 1)]


def cmd_coeffs(args) -> int:
    if args.p is None:
        indices = enumerate_index_set(args.n, args.q)
    else:
        indices = enumerate_restricted_index_set(args.n, args.q, args.p)
    rows = [["index", "pi", "running_sum"]]
    running = Fraction(0)
    for m in indices:
        pi = pi_coefficient(m)
        running += pi
        rows.append([" ".join(str(e) for e in m), _frac(pi), _frac(running)])
    if args.format == "csv":
        _emit([",".join(row) for row in rows], None)
    else:
        _emit(_table(rows), None)
    return 0


def cmd_pisum(args) -> int:
    lhs = pi_sum(args.n, args.q, args.p)
    rhs = multinomial_pi_sum(args.n, args.q, args.p)
    verdict = "EQUAL" if lhs == rhs else "UNEQUAL"
    print(f"{_frac(lhs)}  {_frac(rhs)}  {verdict}")
    return 0


def cmd_scalar(args) -> int:
    a = [float(tok) for tok in args.a.split(",") if tok != ""]
    series = scalar_coefficients(a, args.order).partial_sum(args.t)
    with warnings.catch_warnings(record=True) as overflowed:
        warnings.simplefilter("always")
        closed = scalar_closed_form(a, args.t)
    print(f"series {_fmt(series, args.digits)}")
    print(f"closed_form {_fmt(closed, args.digits)}")
    print(f"abs_gap {_fmt(abs(series - closed), args.digits)}")
    if overflowed:
        print("warning: closed-form value exceeds float range", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    coeffs = _load_poly(args.coeffs, args.orientation)
    header = "t," + ",".join(_entry_headers(coeffs.dim)) + ",tail_bound"
    step = max(args.t, 1.0) if args.step is None else args.step
    path = solve_stepped(coeffs, args.t, step, args.order)
    if args.step is None:  # one step, or the lone t = 0 point: print its end only
        path = path[-1:]
    rows = [[s.t, *s.value.ravel().tolist(), s.tail_bound] for s in path]
    _emit_certified(header, rows, args.digits, args.out)
    return 0


def cmd_compare_pb(args) -> int:
    coeffs = _load_poly(args.coeffs, args.orientation)
    d = args.digits
    lines = ["degree,abs_gap,rel_gap"]
    for row in pb_equivalence_report(coeffs, args.order):
        lines.append(f"{row.degree},{_fmt(row.abs_gap, d)},{_fmt(row.rel_gap, d)}")
    _emit(lines, args.out)
    return 0


def cmd_counterexample(args) -> int:
    times = tuple(float(tok) for tok in args.times.split(",") if tok != "")
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
    _emit(_table(rows), None)
    return 0


def _print_shift_poly(poly: shift_algebra.ShiftPolynomial) -> None:
    if poly.is_zero():
        print("0")
        return
    for (s, k), coeff in poly.terms:
        print(f"{_frac(coeff)} * S^{s} U^{k}")


def cmd_algebra_reduce(args) -> int:
    _print_shift_poly(shift_algebra.reduce(args.word))
    return 0


def cmd_algebra_group(args) -> int:
    _print_shift_poly(shift_algebra.binomial_group(args.m, args.j).combined())
    return 0


def cmd_algebra_power(args) -> int:
    lam = Fraction(args.lam)
    mu = Fraction(args.mu)
    _print_shift_poly(shift_algebra.power_expand(args.k, lam, mu))
    return 0


def cmd_bdp(args) -> int:
    spec = bdp_mod.BirthDeathSpec(
        lam=(args.lam0, args.lam1),
        mu=(args.mu0, args.mu1),
        states=args.states,
        boundary=bdp_mod.Boundary(args.boundary),
    )
    traj, _ = bdp_mod.solve_bdp(spec, args.T, args.steps, args.order)
    header = "t," + ",".join(f"p_{i}" for i in range(1, spec.states + 1)) + ",leakage,tail_bound"
    columns = (traj.times, traj.distributions, traj.leakage, traj.tail_bounds)
    _emit_certified(header, np.column_stack(columns).tolist(), args.digits, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared after it."""
    parser = _Parser(prog="evoseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="index set with exact weights and running sum")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--p", type=int, default=None, help="restrict entries to at most p")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("pisum", help="weight sum two ways plus verdict")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(handler=cmd_pisum)

    p = sub.add_parser("scalar", help="scalar series value vs closed form")
    p.add_argument("--a", required=True, help="comma-separated coefficients a_0,a_1,...")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(handler=cmd_scalar)

    p = sub.add_parser("solve", help="solve the matrix evolution equation")
    p.add_argument("--coeffs", required=True, help="matrix polynomial file")
    p.add_argument("--orientation", choices=("left", "right"), default="left")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV path, stdout when omitted")
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("compare-pb", help="iterated-integral vs recursion gap per degree")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--orientation", choices=("left", "right"), default="left")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(handler=cmd_compare_pb)

    p = sub.add_parser(
        "counterexample",
        help="residuals: series solution vs exponentiated antiderivative",
    )
    p.add_argument("--times", default="0.25,0.5,0.75,1.0")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("algebra", help="shift-operator normal forms")
    alg = p.add_subparsers(dest="algebra_command", required=True)
    q = alg.add_parser("reduce", help="canonical form of a word over U, S")
    q.add_argument("word")
    q.set_defaults(handler=cmd_algebra_reduce)
    q = alg.add_parser("group", help="interleaving sum of m U atoms and j S U atoms")
    q.add_argument("m", type=int)
    q.add_argument("j", type=int)
    q.set_defaults(handler=cmd_algebra_group)
    q = alg.add_parser("power", help="expand (lam U - mu S U)^k")
    q.add_argument("k", type=int)
    q.add_argument("--lam", default="1")
    q.add_argument("--mu", default="1")
    q.set_defaults(handler=cmd_algebra_power)

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
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(handler=cmd_bdp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its one line
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:  # contract: one diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
