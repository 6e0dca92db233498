"""Show that exponentiating the antiderivative is not a solution.

For A(t) = [[0, 1], [t, 0]] the coefficients A_0 and A_1 do not commute, so
exp(integral of A) fails the equation while the series solution passes.  The
(1,1) entries start to disagree at t^6: 1 + t^3/6 + ... vs 1 + t^3/4 + t^6/96.
"""

import numpy as np

from evoseries.engine import (
    compute_coefficients,
    counterexample_coefficients,
    counterexample_report,
    naive_exponential,
)


def main() -> None:
    print("t      series defect   exp defect      ratio")
    for row in counterexample_report():
        print(f"{row.t:<5g}  {row.series_residual:<14.3e} "
              f"{row.exponential_residual:<14.3e}  {row.ratio:.1e}")

    coeffs = counterexample_coefficients()
    series = compute_coefficients(coeffs, 30)
    t = 1.0
    good = series.value_at(t)
    bad = naive_exponential(coeffs, t)
    print(f"\nat t={t}:")
    print("series solution:\n", good)
    print("exponentiated antiderivative:\n", bad)
    print(f"entrywise disagreement: {np.abs(good - bad).max():.3f}")


if __name__ == "__main__":
    main()
