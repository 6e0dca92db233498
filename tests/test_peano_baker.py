import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_degree, pb_term
from evoseries import peano_baker
from evoseries.combinatorics import TermBudgetError
from evoseries.engine import MatrixPolyCoefficients, MatrixPolynomial, Orientation
from evoseries.peano_baker import pb_equivalence_report, pb_partial_sum


def random_family(rng, dim_max=3, p_max=2, orientation=Orientation.LEFT):
    dim = int(rng.integers(1, dim_max + 1))
    p = int(rng.integers(0, p_max + 1))
    mats = tuple(
        rng.integers(-3, 4, size=(dim, dim)).astype(float) for _ in range(p + 1)
    )
    return MatrixPolyCoefficients(mats, orientation)


def test_polynomial_basics():
    poly = MatrixPolynomial((np.eye(2), np.zeros((2, 2))))
    assert poly.degree == 1 and min_degree(poly) == 0
    assert np.array_equal(poly.coefficient(3), np.zeros((2, 2)))
    # Results are trimmed: A_1 = 0 leaves U_1 = A_0 t, and the nilpotent A_0
    # makes U_2 and every later term the zero polynomial.
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    coeffs = MatrixPolyCoefficients((nil, np.zeros((2, 2))))
    u1 = pb_term(coeffs, 1)
    assert u1.degree == 1 and np.array_equal(u1.coefficient(1), nil)
    u2 = pb_term(coeffs, 2)
    assert u2.degree == 0 and min_degree(u2) is None
    assert pb_partial_sum(coeffs, 4).degree == 1
    zero = MatrixPolynomial((np.zeros((2, 2)),))
    assert min_degree(zero) is None
    with pytest.raises(ValueError):
        MatrixPolynomial(())
    with pytest.raises(ValueError):
        MatrixPolynomial((np.eye(2), np.eye(3)))


def test_integrate_shifts_degrees():
    # U_1 is the integral of A(s) = 2 I + 6 I s.
    coeffs = MatrixPolyCoefficients((np.eye(2) * 2.0, np.eye(2) * 6.0))
    integral = pb_term(coeffs, 1)
    assert np.array_equal(integral.coefficient(0), np.zeros((2, 2)))
    assert np.array_equal(integral.coefficient(1), np.eye(2) * 2.0)
    assert np.array_equal(integral.coefficient(2), np.eye(2) * 3.0)


def test_first_terms_exact(example_left, example_pair):
    a0, a1 = example_pair
    u0 = pb_term(example_left, 0)
    assert u0.degree == 0 and np.array_equal(u0.coefficient(0), np.eye(3))
    u1 = pb_term(example_left, 1)
    assert np.array_equal(u1.coefficient(1), a0)
    assert np.array_equal(u1.coefficient(2), a1 / 2)
    u2 = pb_term(example_left, 2)
    assert np.allclose(u2.coefficient(2), a0 @ a0 / 2, atol=1e-15)
    assert np.allclose(u2.coefficient(3), a0 @ a1 / 6 + a1 @ a0 / 3, atol=1e-15)
    assert np.allclose(u2.coefficient(4), a1 @ a1 / 8, atol=1e-15)
    assert min_degree(u2) == 2


def test_right_orientation_term(example_right, example_pair):
    a0, a1 = example_pair
    u2 = pb_term(example_right, 2)
    assert np.allclose(u2.coefficient(3), a1 @ a0 / 6 + a0 @ a1 / 3, atol=1e-15)


def test_min_degree_grows(example_left):
    for n in range(13):
        term = pb_term(example_left, n, max_degree=14)
        md = min_degree(term)
        assert md is not None and md >= n


def test_partial_sum_low_order(example_left, example_pair):
    a0, a1 = example_pair
    total = pb_partial_sum(example_left, 3, max_degree=3)
    assert np.array_equal(total.coefficient(0), np.eye(3))
    assert np.array_equal(total.coefficient(1), a0)
    assert np.allclose(total.coefficient(2), (a0 @ a0 + a1) / 2, atol=1e-15)
    manual3 = np.linalg.matrix_power(a0, 3) / 6 + a0 @ a1 / 6 + a1 @ a0 / 3
    assert np.allclose(total.coefficient(3), manual3, atol=1e-15)


def test_scalar_terms_are_powers():
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[0.5]])),)
    u1 = pb_term(coeffs, 1)
    for n in range(2, 7):
        un = pb_term(coeffs, n)
        # scalar case: u_n = u_1^n / n!
        power = np.polynomial.Polynomial(
            [u1.coefficient(k)[0, 0] for k in range(u1.degree + 1)]
        ) ** n
        expected = power.coef / math.factorial(n)
        got = [un.coefficient(k)[0, 0] for k in range(un.degree + 1)]
        assert np.allclose(got[: len(expected)], expected, rtol=1e-13, atol=1e-15)


def test_truncation_matches_recursion_worked_example(example_left):
    rows = pb_equivalence_report(example_left, 10)
    assert len(rows) == 11
    assert max(r.rel_gap for r in rows) < 1e-12


def test_truncation_matches_recursion_random():
    rng = np.random.default_rng(4711)
    for _ in range(20):
        for orientation in (Orientation.LEFT, Orientation.RIGHT):
            coeffs = random_family(rng, orientation=orientation)
            rows = pb_equivalence_report(coeffs, 8)
            assert max(r.rel_gap for r in rows) < 1e-12


def test_report_zero_family():
    zero = MatrixPolyCoefficients((np.zeros((2, 2)),))
    rows = pb_equivalence_report(zero, 4)
    assert all(r.abs_gap == 0.0 for r in rows)



def family_times_per_j(coeffs, stack):
    # One product a coefficient, added into its shifted slice in j order.
    left = coeffs.orientation is Orientation.LEFT
    out = np.zeros((coeffs.degree + len(stack), coeffs.dim, coeffs.dim))
    for j, aj in enumerate(coeffs.stack):
        out[j : j + len(stack)] += aj @ stack if left else stack @ aj
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    order=st.integers(1, 25),
    left=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_partial_sum_bytes_equal_the_per_j_products(seed, dim, degree, order, left):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 3, (degree + 1, 1, 1))
    mats = rng.standard_normal((degree + 1, dim, dim)) * scales
    coeffs = MatrixPolyCoefficients(mats, Orientation.LEFT if left else Orientation.RIGHT)
    sums = [pb_partial_sum(coeffs, order), pb_partial_sum(coeffs, order, max_degree=order)]
    broadcast = peano_baker._family_times
    peano_baker._family_times = family_times_per_j
    try:
        expected = [pb_partial_sum(coeffs, order), pb_partial_sum(coeffs, order, max_degree=order)]
    finally:
        peano_baker._family_times = broadcast
    for got, want in zip(sums, expected):
        assert got.stack.shape == want.stack.shape and got.stack.tobytes() == want.stack.tobytes()


@given(st.integers(0, 3), st.integers(0, 40), st.one_of(st.none(), st.integers(0, 60)))
@settings(max_examples=100, deadline=None)
def test_partial_sum_counts_its_matrix_products_before_any(p, order, max_degree):
    # The count that the cap refuses, against the products the loop forms:
    # U_(i+1) multiplies every A_j into every coefficient of U_i.
    degree, products = 0, 0
    for _ in range(order):
        products += (p + 1) * (degree + 1)
        degree = degree + p + 1 if max_degree is None else min(degree + p + 1, max_degree)
    coeffs = MatrixPolyCoefficients(np.ones((p + 1, 2, 2)))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(peano_baker, "MAX_MATMULS", products - 1)
        with pytest.raises(TermBudgetError) as refused:
            pb_partial_sum(coeffs, order, max_degree)
        patched.setattr(peano_baker, "MAX_MATMULS", products)
        pb_partial_sum(coeffs, order, max_degree)  # at the cap itself, admitted
    assert (refused.value.count, refused.value.cap) == (products, products - 1)
    assert str(refused.value) == (
        f"Peano-Baker order {order} needs {products} matrix products, over the cap of {products - 1}"
    )
