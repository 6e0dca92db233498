"""Series solutions of non-autonomous linear evolution equations.

dR/dt = A(t) R(t) (or R(t) A(t)) with matrix-polynomial A(t), solved by an
explicit Maclaurin construction with exact combinatorial weights, certified
error bounds that include rounding, and independent cross-checks (iterated
integrals, scalar closed forms, shift-operator algebra).
"""

from . import bdp, combinatorics, engine, matfile, peano_baker, scalar, shift_algebra
from .engine import (
    MatrixPolyCoefficients,
    MatrixSeries,
    Orientation,
    compute_coefficients,
    compute_coefficients_explicit,
    solve_stepped,
    tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    "bdp",
    "combinatorics",
    "engine",
    "matfile",
    "peano_baker",
    "scalar",
    "shift_algebra",
    "MatrixPolyCoefficients",
    "MatrixSeries",
    "Orientation",
    "compute_coefficients",
    "compute_coefficients_explicit",
    "solve_stepped",
    "tail_bound",
    "__version__",
]
