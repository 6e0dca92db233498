from itertools import islice

import numpy as np
import pytest

from evoseries.engine import MatrixPolyCoefficients, MatrixPolynomial, Orientation
from evoseries.peano_baker import _polynomial, _terms

# 3x3 linear-in-t family used as the worked example throughout the suite.
A0 = np.array([[1.0, -1.0, 2.0], [1.0, -2.0, 1.0], [2.0, 1.0, 1.0]])
A1 = np.array([[2.0, 1.0, 3.0], [-2.0, 1.0, 2.0], [-3.0, 2.0, 1.0]])


@pytest.fixture
def example_pair():
    return A0.copy(), A1.copy()


@pytest.fixture
def example_left():
    return MatrixPolyCoefficients((A0, A1), Orientation.LEFT)


@pytest.fixture
def example_right():
    return MatrixPolyCoefficients((A0, A1), Orientation.RIGHT)


def format_coefficients(matrices, digits: int = 12) -> str:
    """Render matrices as coefficient-file text; inverse of parsing up to rounding."""
    blocks = []
    for mat in matrices:
        arr = np.asarray(mat, dtype=float)
        lines = [" ".join(f"{v:.{digits}g}" for v in row) for row in arr]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def pb_term(
    coeffs: MatrixPolyCoefficients, n: int, max_degree: int | None = None
) -> MatrixPolynomial:
    """The n-th iterated-integral term U_n, trailing zero coefficients trimmed.

    max_degree discards higher terms after each integration, as
    pb_partial_sum's does.
    """
    return _polynomial(next(islice(_terms(coeffs, max_degree), n, None)))


def min_degree(poly: MatrixPolynomial) -> int | None:
    """Lowest degree with a nonzero coefficient, or None for the zero polynomial."""
    return next((k for k, c in enumerate(poly.stack) if c.any()), None)
