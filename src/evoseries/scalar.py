"""Scalar evolution series dr/dt = a(t) r(t): recursion, closed forms, bounds.

The scalar problem plays two roles.  It is the ground truth for 1x1 systems,
where the closed form exp(integral of a) is available.  And it is the source
of the certificates for the matrix case: when ||A_j|| <= a_j for every j, the
scalar coefficients built from the a_j dominate ||R_n|| term by term, and
they sum to exp(integral of a), finite for every t.  So that exponential
minus the partial sum of scalar_coefficients bounds the matrix tail; the
engine's local bound widens the a_j to cover rounding too.

Coefficient lists a = (a_0, ..., a_p) are plain float sequences throughout.
scalar_coefficients and ScalarSeries.partial_sum also run elementwise on
numpy arrays of one shape; the engine's local bound stacks the steps of a
whole block that way, in one pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ScalarSeries",
    "scalar_coefficients",
    "scalar_explicit_rn",
    "scalar_closed_form",
    "coefficient_bound",
    "lemma_constants",
]


@dataclass(frozen=True)
class ScalarSeries:
    """Maclaurin coefficients r_0 = 1, r_1, ..., r_N of the scalar solution."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1 or self.coeffs[0] != 1.0:
            raise ValueError("scalar series must start at r_0 = 1")

    def partial_sum(self, t: float) -> float:
        """Value of the truncated series at t, by Horner evaluation.

        Coefficients and t may be arrays of one shape (see scalar_coefficients).
        """
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def scalar_coefficients(a: Sequence[float], order: int) -> ScalarSeries:
    """Coefficients from the recursion n r_n = a_0 r_{n-1} + ... + a_{n-1} r_0.

    Coefficients a_j with j >= len(a) are treated as zero.  Each a_j may be
    a numpy array, all of one shape: the products and sums then run
    elementwise in the same order, so each element is bit for bit the float
    call on its own coefficients.  Where floats overflow silently to inf,
    numpy also warns, unless the caller sets np.errstate.
    """
    if len(a) == 0:
        raise ValueError("need at least the constant coefficient a_0")
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    r = [1.0]
    for n in range(1, order + 1):
        acc = 0.0
        for j in range(min(len(a), n)):
            acc += a[j] * r[n - 1 - j]
        r.append(acc / n)
    return ScalarSeries(tuple(r))


def scalar_explicit_rn(a0: float, a1: float, n: int) -> float:
    """r_n for linear a(t) = a0 + a1 t, without running the recursion.

    r_n = sum over q of a0^(n-2q) a1^q / ((n-2q)! q! 2^q); the q-th term
    collects every product with q picks of a1, whose weights sum to exactly
    1 / ((n-2q)! q! 2^q).
    """
    if n < 1:
        raise ValueError(f"coefficient order must be >= 1, got {n}")
    total = 0.0
    for q in range(n // 2 + 1):
        total += a0 ** (n - 2 * q) * a1**q / (
            math.factorial(n - 2 * q) * math.factorial(q) * 2**q
        )
    return total


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


def coefficient_bound(c: float, d: float, n: int) -> float:
    """The factorial envelope d * c^floor(n/2) / floor(n/2)!."""
    if c < 0 or d <= 0:
        raise ValueError("bound constants require c >= 0 and d > 0")
    if n < 1:
        raise ValueError(f"coefficient order must be >= 1, got {n}")
    half = n // 2
    return d * c**half / math.factorial(half)


def lemma_constants(a0: float, a1: float) -> tuple[float, float]:
    """Constants (c, d) with |r_n| <= d c^floor(n/2) / floor(n/2)! for all n.

    c = max(|a0|, |a1|).  The inductive step of the bound is self-sustaining
    once n/2 > c, so d only has to absorb a finite window of small orders: we
    take the max of |r_n| floor(n/2)! / c^floor(n/2) over n <= 2m, where m is
    the smallest integer with m + 1/2 > c, and floor the result at 1.
    """
    c = max(abs(a0), abs(a1))
    if c == 0.0:
        return 0.0, 1.0
    m = max(1, math.floor(c - 0.5) + 1)
    series = scalar_coefficients((a0, a1), 2 * m)
    d = 1.0
    for n in range(1, 2 * m + 1):
        half = n // 2
        d = max(d, abs(series.coeffs[n]) * math.factorial(half) / c**half)
    return c, d
