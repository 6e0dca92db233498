"""Scalar evolution series dr/dt = a(t) r(t): recursion and closed form.

The scalar problem plays two roles.  It is the ground truth for 1x1 systems,
where the closed form exp(integral of a) is available.  And it is the source
of the certificates for the matrix case: when ||A_j|| <= a_j for every j, the
scalar coefficients built from the a_j dominate ||R_n|| term by term, and
they sum to exp(integral of a), finite for every t.  So that exponential
minus the partial sum of scalar_coefficients bounds the matrix tail; the
engine's local bound widens the a_j to cover rounding too.

Coefficient lists a = (a_0, ..., a_p) are plain float sequences throughout.
scalar_coefficients also runs elementwise on numpy arrays of one shape; the
engine's local bound stacks the steps of a whole block that way, in one
pass, and sums the series with the engine's one Horner routine.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .combinatorics import _refuse

__all__ = ["MAX_SERIES_PRODUCTS", "scalar_coefficients", "scalar_closed_form"]

# Most products one series recursion may form: order * (p + 1) for p + 1
# coefficients, the multiply-adds of a scalar series, the matrix products of
# the engine's recursion or the stencil products of solve_bdp's.  Far above
# every order in use; at the cap a scalar series and its sum take seconds.
MAX_SERIES_PRODUCTS = 10**6


def _check_order(order: int, width: int) -> None:
    """Refuse an order below 1, then a recursion of more than MAX_SERIES_PRODUCTS products.

    Over width coefficients order n sums min(width, n) products: order * min(width, order) in all.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    _refuse(f"series order {order}", order * min(width, order), "products", MAX_SERIES_PRODUCTS)


def scalar_coefficients(a: Sequence[float], order: int) -> np.ndarray:
    """r_0 = 1, r_1, ..., r_order from the recursion n r_n = a_0 r_{n-1} + ... + a_{n-1} r_0.

    Coefficients a_j with j >= len(a) are treated as zero.  Each a_j may be
    a numpy array, all of one shape: the products and sums then run
    elementwise in the same order, so each element is bit for bit the float
    call on its own coefficients.  Returns the (order+1, *shape) float array
    of the r_n.  Overflow gives inf, and infs of both signs nan, without a
    floating-point warning.  An order past MAX_SERIES_PRODUCTS multiply-adds
    is refused before any.
    """
    if len(a) == 0:
        raise ValueError("need at least the constant coefficient a_0")
    _check_order(order, len(a))
    r = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order + 1):
            acc = 0.0
            for j in range(min(len(a), n)):
                acc += a[j] * r[n - 1 - j]
            r.append(acc / n)
    r[0] = np.ones(np.shape(a[0]))  # r_0 in every element, for the stack
    return np.array(r)


def scalar_closed_form(a: Sequence[float], t: float) -> float:
    """exp of the antiderivative: exp(sum_j a_j t^(j+1) / (j+1)).

    Overflow is reported as +inf with a RuntimeWarning instead of an
    exception, so sweeps over (a, t) grids keep running.  A non-finite time
    or coefficient is an error.
    """
    if len(a) == 0:
        raise ValueError("need at least the constant coefficient a_0")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    exponent = 0.0
    for j, aj in enumerate(a):
        if not math.isfinite(aj):
            raise ValueError(f"coefficient a_{j} must be finite, got {aj}")
        if aj:  # a zero coefficient adds nothing, even where t^(j+1) overflows
            try:
                power = t ** (j + 1)
            except OverflowError:  # float ** int raises where float * float gives inf
                power = math.copysign(math.inf, t) ** (j + 1)
            exponent += aj * power / (j + 1)
    if math.isnan(exponent):
        # Terms overflowed to +inf and -inf; the one of largest magnitude decides.
        _, sign = max(
            (
                math.log(abs(aj)) + (j + 1) * math.log(abs(t)) - math.log(j + 1),
                math.copysign(1.0, aj) * math.copysign(1.0, t) ** (j + 1),
            )
            for j, aj in enumerate(a)
            if aj
        )
        exponent = sign * math.inf
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        warnings.warn(
            "closed-form value exceeds float range, returning inf",
            RuntimeWarning,
            stacklevel=2,
        )
    return value
