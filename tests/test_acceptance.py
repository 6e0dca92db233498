"""Acceptance gate: the ten headline checks, each timed and reported on one line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
from conftest import min_degree, pb_term
from scipy.linalg import expm

from evoseries.bdp import BirthDeathSpec, generator_family, solve_bdp
from evoseries.combinatorics import (
    enumerate_restricted_index_set,
    max_total_index,
    multinomial_pi_sum,
    pi_coefficient,
    pi_sum,
    term_count,
)
from evoseries.engine import (
    MatrixPolyCoefficients,
    Orientation,
    compute_coefficients,
    compute_coefficients_explicit,
    counterexample_report,
    tail_bound,
)
from evoseries.peano_baker import pb_equivalence_report
from evoseries.scalar import scalar_closed_form
from evoseries.shift_algebra import (
    ShiftPolynomial,
    binomial_group,
    power_expand,
    shift_identities_check,
)

A0 = np.array([[1.0, -1.0, 2.0], [1.0, -2.0, 1.0], [2.0, 1.0, 1.0]])
A1 = np.array([[2.0, 1.0, 3.0], [-2.0, 1.0, 2.0], [-3.0, 2.0, 1.0]])


def _report(number: int, limit_s: float, description: str):
    def decorator(fn):
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"FAIL criterion {number}: {description} ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s"
            print(
                f"PASS criterion {number}: {description} "
                f"({elapsed:.2f}s < {limit_s:g}s)"
            )

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@_report(1, 1.0, "weight table for the (7,2,1) index set, exact rationals")
def test_criterion_01_pi_table():
    expected = [
        Fraction(1, 1680), Fraction(1, 1260), Fraction(1, 630),
        Fraction(1, 1008), Fraction(1, 504), Fraction(1, 336),
        Fraction(1, 840), Fraction(1, 420), Fraction(1, 280), Fraction(1, 210),
    ]
    got = [pi_coefficient(m) for m in enumerate_restricted_index_set(7, 2, 1)]
    assert got == expected


@_report(2, 30.0, "weight-sum identities, exact over the whole grid")
def test_criterion_02_sum_identities():
    for n in range(1, 15):
        for q in range(n // 2 + 1):
            closed = Fraction(1, math.factorial(n - 2 * q) * math.factorial(q) * 2**q)
            assert pi_sum(n, q, 1) == closed, (n, q)
    for n in range(1, 13):
        for p in (1, 2, 3):
            for q in range(max_total_index(n, p) + 1):
                assert pi_sum(n, q, p) == multinomial_pi_sum(n, q, p), (n, q, p)


@_report(3, 1.0, "3x3 worked example reproduces printed R_2, R_3, R_4")
def test_criterion_03_printed_matrices():
    printed = {
        2: [[3.0, 2.0, 3.0], [-0.5, 2.5, 1.5], [1.0, -0.5, 3.5]],
        3: [[4.8333, -0.8333, 5.5], [2.6667, -0.5, 0.8333], [2.5, 2.0, 2.6667]],
        4: [[3.9167, 2.1667, 7.0], [-0.625, -0.0833, 2.25], [1.4583, -0.4167, 3.0]],
    }
    series = compute_coefficients(MatrixPolyCoefficients((A0, A1)), 4)
    for n, target in printed.items():
        assert np.abs(series.terms[n] - np.array(target)).max() < 5e-5, n


@_report(4, 60.0, "explicit formula equals recursion on 50 random instances")
def test_criterion_04_explicit_equivalence():
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        p = int(rng.integers(0, 3))
        mats = tuple(
            rng.integers(-3, 4, size=(dim, dim)).astype(float) for _ in range(p + 1)
        )
        for orientation in (Orientation.LEFT, Orientation.RIGHT):
            coeffs = MatrixPolyCoefficients(mats, orientation)
            series = compute_coefficients(coeffs, 6)
            for n in range(1, 7):
                explicit = compute_coefficients_explicit(coeffs, n)
                assert np.abs(explicit - series.terms[n]).max() <= 1e-10


@_report(5, 30.0, "iterated-integral sum equals the series; term degrees grow")
def test_criterion_05_peano_baker():
    example = MatrixPolyCoefficients((A0, A1))
    assert max(r.rel_gap for r in pb_equivalence_report(example, 10)) < 1e-12
    rng = np.random.default_rng(5150)
    for trial in range(20):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        mats = tuple(
            rng.integers(-3, 4, size=(dim, dim)).astype(float) for _ in range(p + 1)
        )
        orientation = Orientation.LEFT if trial % 2 == 0 else Orientation.RIGHT
        coeffs = MatrixPolyCoefficients(mats, orientation)
        assert max(r.rel_gap for r in pb_equivalence_report(coeffs, 8)) < 1e-12
    for n in range(13):
        md = min_degree(pb_term(example, n, max_degree=14))
        assert md is not None and md >= n


@_report(6, 1.0, "scalar series matches the closed form; tail bound dominates")
def test_criterion_06_scalar_truth():
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])),)
    series40 = compute_coefficients(coeffs, 40)
    for t in (0.25, 0.5, 1.0):
        truth = math.exp(t + t * t / 2)
        assert abs(series40.value_at(t)[0, 0] - truth) < 1e-10
        assert abs(scalar_closed_form((1.0, 1.0), t) - truth) < 1e-12
        for order in (5, 10, 20, 40):
            partial = compute_coefficients(coeffs, order).value_at(t)[0, 0]
            assert tail_bound(coeffs, order, t) >= abs(truth - partial)


@_report(7, 1.0, "series residual beats the exponentiated antiderivative 1000x")
def test_criterion_07_counterexample():
    row = counterexample_report(times=(1.0,), order=30, h=1e-4)[0]
    assert row.series_residual < 1e-6
    assert row.exponential_residual >= 1e3 * row.series_residual


@_report(8, 5.0, "shift-algebra goldens and identities")
def test_criterion_08_shift_algebra():
    def upoly(*pairs):
        return ShiftPolynomial({(0, k): c for k, c in pairs})

    group = binomial_group(2, 2)
    assert group.head == upoly((2, 3), (1, -3))
    assert group.tails == (
        upoly((3, 3), (2, -5), (1, 6)),
        upoly((3, -1), (2, 2), (1, -3)),
    )

    # the four groups behind the cubic expansion, frozen term for term
    cubic = {
        (3, 0): (upoly((3, 1)), ()),
        (2, 1): (upoly((2, 2), (1, -1)), (upoly((3, 1), (2, -1), (1, 1)),)),
        (1, 2): (upoly((1, 1)), (upoly((2, 2), (1, -3)), upoly((2, -1), (1, 2)))),
        (0, 3): (ShiftPolynomial(), (upoly((1, 1)), upoly((1, -2)), upoly((1, 1)))),
    }
    for (m, j), (head, tails) in cubic.items():
        got = binomial_group(m, j)
        assert got.head == head and got.tails == tails, (m, j)
    for lam, mu in ((Fraction(5), Fraction(7)), (Fraction(1), Fraction(1))):
        expected = ShiftPolynomial()
        for m in range(4):
            j = 3 - m
            head, tails = cubic[(m, j)]
            combined = head
            for s, tail in enumerate(tails, start=1):
                combined = combined + tail.with_delay(s)
            expected = expected + combined * ((-1) ** j * lam**m * mu**j)
        assert power_expand(3, lam, mu) == expected, (lam, mu)

    for q in range(1, 5):
        for r in range(1, 5):
            assert shift_identities_check(q, r).all_pass, (q, r)


@_report(9, 30.0, "birth-death run conserves mass and matches the exponential oracle")
def test_criterion_09_birth_death():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=80)
    traj, _ = solve_bdp(spec, 0.5, 10, 30)
    assert traj.leakage.max() < 1e-6
    assert traj.distributions.min() >= -1e-9
    autonomous = BirthDeathSpec(lam=(1.0, 0.0), mu=(1.0, 0.0), states=80)
    traj0, _ = solve_bdp(autonomous, 0.5, 10, 30)
    p0 = np.zeros(80)
    p0[0] = 1.0
    oracle = p0 @ expm(0.5 * generator_family(autonomous).stack[0])
    assert np.abs(traj0.distributions[-1] - oracle).max() < 1e-8


@_report(10, 1.0, "term counts follow the Fibonacci sequence")
def test_criterion_10_fibonacci():
    expected = [1, 2]
    while len(expected) < 20:
        expected.append(expected[-1] + expected[-2])
    assert [term_count(n, 1) for n in range(1, 21)] == expected
