"""Walk through the 3x3 linear example: coefficients, evaluation, cross-checks."""

import numpy as np

from evoseries.engine import (
    MatrixPolyCoefficients,
    compute_coefficients,
    compute_coefficients_explicit,
    residual,
    solve_stepped,
    tail_bound,
)
from evoseries.peano_baker import pb_equivalence_report

A0 = np.array([[1.0, -1.0, 2.0], [1.0, -2.0, 1.0], [2.0, 1.0, 1.0]])
A1 = np.array([[2.0, 1.0, 3.0], [-2.0, 1.0, 2.0], [-3.0, 2.0, 1.0]])

T = 0.2
ORDER = 25


def main() -> None:
    coeffs = MatrixPolyCoefficients((A0, A1))
    series = compute_coefficients(coeffs, ORDER)

    np.set_printoptions(precision=4, suppress=True)
    for n in (2, 3, 4):
        print(f"R_{n} =")
        print(series.terms[n])
        gap = np.abs(series.terms[n] - compute_coefficients_explicit(coeffs, n)).max()
        print(f"  explicit-formula gap: {gap:.2e}")

    value = series.value_at(T)
    bound = tail_bound(coeffs, ORDER, T)
    print(f"\nR({T}) =")
    print(value)
    print(f"tail bound at order {ORDER}: {bound:.3e}")
    print(f"defect |R' - A R| at t={T}: {residual(coeffs, series, T, 1e-5):.3e}")

    # same answer, integral route: truncated iterated integrals vs the series
    worst = max(r.rel_gap for r in pb_equivalence_report(coeffs, 10))
    print(f"iterated-integral route, worst degree gap through n=10: {worst:.2e}")

    # step out to t=1 where a single expansion would need a much higher order
    traj = solve_stepped(coeffs, 1.0, 0.125, ORDER)
    print(f"\nstepped to t=1 in {len(traj.times) - 1} steps;"
          f" accumulated error bound {traj.tail_bounds[-1]:.3e}")
    print(traj.values[-1])


if __name__ == "__main__":
    main()
