"""Iterated-integral solution terms, kept as exact matrix polynomials in t.

The terms are U_0 = I and U_n(t) = integral_0^t A(s) U_{n-1}(s) ds (product
on the orientation side).  With polynomial A each integral is a polynomial
multiplication followed by term-wise division by the new exponent, so no
quadrature enters.  Summing terms and truncating at degree N must reproduce
the order-N Maclaurin series coefficient for coefficient; that agreement is
an independent oracle for the series engine, since the two constructions
share no recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .combinatorics import _refuse
from .engine import MatrixPolyCoefficients, MatrixPolynomial, Orientation, compute_coefficients

__all__ = [
    "DegreeGap",
    "MAX_MATMULS",
    "pb_partial_sum",
    "pb_equivalence_report",
]

# Most matrix products pb_partial_sum may form, far above every order in use.
MAX_MATMULS = 10**6


def _family_times(coeffs: MatrixPolyCoefficients, stack: np.ndarray) -> np.ndarray:
    # A(t) P(t) for LEFT, P(t) A(t) for RIGHT; exact convolution of the stacks.
    # The p + 1 products A_j P form in one broadcast matmul, then add into the
    # shifted slices in j order.
    family = coeffs.stack[:, np.newaxis]
    if coeffs.orientation is Orientation.LEFT:
        products = family @ stack
    else:
        products = stack @ family
    out = np.zeros((coeffs.degree + len(stack), coeffs.dim, coeffs.dim))
    for j, product in enumerate(products):
        out[j : j + len(stack)] += product
    return out


def _integrate(stack: np.ndarray) -> np.ndarray:
    # Antiderivative vanishing at 0: C_k t^k integrates to C_k t^(k+1)/(k+1).
    out = np.zeros((len(stack) + 1,) + stack.shape[1:])
    out[1:] = stack / np.arange(1, len(stack) + 1)[:, None, None]
    return out


def _terms(coeffs: MatrixPolyCoefficients, max_degree: int | None) -> Iterator[np.ndarray]:
    # U_0, U_1, ... as coefficient stacks; U_n has length n (p + 1) + 1 before
    # the cut at max_degree.
    term = np.eye(coeffs.dim)[np.newaxis]
    while True:
        yield term
        term = _integrate(_family_times(coeffs, term))
        if max_degree is not None:
            term = term[: max_degree + 1]


def _polynomial(stack: np.ndarray) -> MatrixPolynomial:
    # Trailing zero matrices dropped; C_0 is always kept.
    nonzero = np.flatnonzero(stack.any(axis=(1, 2)))
    return MatrixPolynomial(stack[: nonzero[-1] + 1 if nonzero.size else 1])


def pb_partial_sum(
    coeffs: MatrixPolyCoefficients, order: int, max_degree: int | None = None
) -> MatrixPolynomial:
    """U_0 + U_1 + ... + U_order as one matrix polynomial, trailing zeros trimmed.

    U_(i+1) multiplies each of the p + 1 coefficients A_j into each of the
    deg_i + 1 coefficients of U_i, deg_i = min(i (p + 1), max_degree), so the
    sum forms sum_(i<order) (p + 1)(deg_i + 1) matrix products; more than
    MAX_MATMULS is refused before any.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"degree must be >= 0, got {max_degree}")
    width = coeffs.degree + 1
    # The first k terms grow by width each; the other order - k stay at max_degree.
    k = order if max_degree is None else min(order, max_degree // width + 1)
    degrees = width * k * (k - 1) // 2 + k + (order - k) * ((max_degree or 0) + 1)
    _refuse(f"Peano-Baker order {order}", width * degrees, "matrix products", MAX_MATMULS)
    size = order * (coeffs.degree + 1) + 1
    if max_degree is not None:
        size = min(size, max_degree + 1)
    total = np.zeros((size, coeffs.dim, coeffs.dim))
    for term in islice(_terms(coeffs, max_degree), order + 1):
        total[: len(term)] += term
    return _polynomial(total)


@dataclass(frozen=True)
class DegreeGap:
    """Entrywise gap at one degree between the two series constructions."""

    degree: int
    abs_gap: float
    rel_gap: float


def pb_equivalence_report(coeffs: MatrixPolyCoefficients, order: int) -> list[DegreeGap]:
    """Per-degree gap between the iterated-integral sum and the recursion series.

    Terms past U_order start at degree > order, so the degree-truncated
    partial sum should match the order-N Maclaurin polynomial to float
    accuracy.  rel_gap divides by max(1, largest entry) of the recursion
    coefficient at that degree.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    poly = pb_partial_sum(coeffs, order, max_degree=order).stack
    series = compute_coefficients(coeffs, order).stack
    padded = np.zeros_like(series)
    padded[: len(poly)] = poly
    gaps = np.abs(padded - series).max(axis=(1, 2)).tolist()
    scales = np.maximum(1.0, np.abs(series).max(axis=(1, 2))).tolist()
    return [DegreeGap(k, gap, gap / scale) for k, (gap, scale) in enumerate(zip(gaps, scales))]
