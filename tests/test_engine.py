import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from evoseries import engine
from evoseries.combinatorics import (
    enumerate_restricted_index_set,
    max_total_index,
    pi_coefficient,
)
from evoseries.engine import (
    MAX_STEPS,
    _grid,
    _local_bound,
    _norms,
    _powers,
    MatrixPolyCoefficients,
    MatrixSeries,
    Orientation,
    TermBudgetError,
    compute_coefficients,
    compute_coefficients_explicit,
    counterexample_coefficients,
    counterexample_report,
    naive_exponential,
    recenter,
    residual,
    solve_stepped,
    tail_bound,
)
from evoseries.scalar import scalar_closed_form


def random_family(rng, dim_max=4, p_max=2, orientation=Orientation.LEFT):
    dim = int(rng.integers(1, dim_max + 1))
    p = int(rng.integers(0, p_max + 1))
    mats = tuple(
        rng.integers(-3, 4, size=(dim, dim)).astype(float) for _ in range(p + 1)
    )
    return MatrixPolyCoefficients(mats, orientation)


def integrate_oracle(coeffs, t_final):
    # high-order adaptive integration of the same initial value problem
    dim = coeffs.dim
    left = coeffs.orientation is Orientation.LEFT

    def rhs(t, y):
        a = coeffs.value_at(t)
        r = y.reshape(dim, dim)
        return (a @ r if left else r @ a).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        np.eye(dim).ravel(),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    return sol.y[:, -1].reshape(dim, dim)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        MatrixPolyCoefficients(())
    with pytest.raises(ValueError):
        MatrixPolyCoefficients((np.zeros((2, 3)),))
    with pytest.raises(ValueError):
        MatrixPolyCoefficients((np.zeros((2, 2)), np.zeros((3, 3))))
    coeffs = MatrixPolyCoefficients((np.eye(2),))
    assert coeffs.dim == 2 and coeffs.degree == 0
    with pytest.raises(ValueError):
        coeffs.stack[0][0, 0] = 5.0  # frozen


def test_orientation_given_as_a_string_is_the_enum_member(example_pair):
    # The solver tests "is Orientation.LEFT", so a name must become the member:
    # a family that kept the string "left" would expand as RIGHT.
    by_name = MatrixPolyCoefficients(example_pair, "left")
    assert by_name.orientation is Orientation.LEFT
    by_member = MatrixPolyCoefficients(example_pair, Orientation.LEFT)
    assert np.array_equal(
        compute_coefficients(by_name, 6).stack, compute_coefficients(by_member, 6).stack
    )
    with pytest.raises(ValueError, match="sideways"):
        MatrixPolyCoefficients(example_pair, "sideways")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficients_reject_non_finite(bad):
    mat = np.zeros((2, 2))
    mat[1, 0] = bad
    with pytest.raises(ValueError, match=r"t\^2 has a non-finite entry"):
        MatrixPolyCoefficients((np.eye(2), np.eye(2), mat))
    with pytest.raises(ValueError, match=r"t\^1 has a non-finite entry"):
        MatrixSeries((np.eye(2), mat))


def test_value_at(example_left, example_pair):
    a0, a1 = example_pair
    t = 0.3
    assert np.allclose(example_left.value_at(t), a0 + t * a1, rtol=0, atol=1e-15)


def test_operator_norm_sides():
    mat = np.array([[1.0, -5.0], [2.0, 0.0]])
    assert _norms(mat, Orientation.LEFT) == 5.0  # max column sum
    assert _norms(mat, Orientation.RIGHT) == 6.0  # max row sum


def test_recursion_matches_worked_example(example_left):
    series = compute_coefficients(example_left, 4)
    r2 = np.array([[3.0, 2.0, 3.0], [-0.5, 2.5, 1.5], [1.0, -0.5, 3.5]])
    r3 = np.array(
        [
            [29 / 6, -5 / 6, 11 / 2],
            [8 / 3, -1 / 2, 5 / 6],
            [5 / 2, 2.0, 8 / 3],
        ]
    )
    r4 = np.array(
        [
            [47 / 12, 13 / 6, 7.0],
            [-5 / 8, -1 / 12, 9 / 4],
            [35 / 24, -5 / 12, 3.0],
        ]
    )
    assert np.allclose(series.terms[2], r2, rtol=0, atol=1e-12)
    assert np.allclose(series.terms[3], r3, rtol=0, atol=1e-12)
    assert np.allclose(series.terms[4], r4, rtol=0, atol=1e-12)


def test_right_orientation_low_orders(example_right, example_pair):
    a0, a1 = example_pair
    series = compute_coefficients(example_right, 3)
    assert np.allclose(series.terms[2], (a0 @ a0 + a1) / 2, atol=1e-14)
    manual = np.linalg.matrix_power(a0, 3) / 6 + a0 @ a1 / 3 + a1 @ a0 / 6
    assert np.allclose(series.terms[3], manual, atol=1e-14)


def test_left_orientation_low_orders(example_left, example_pair):
    a0, a1 = example_pair
    series = compute_coefficients(example_left, 3)
    manual = np.linalg.matrix_power(a0, 3) / 6 + a0 @ a1 / 6 + a1 @ a0 / 3
    assert np.allclose(series.terms[3], manual, atol=1e-14)


def test_autonomous_coefficients():
    a0 = np.array([[1.0, 2.0], [0.5, -1.0]])
    coeffs = MatrixPolyCoefficients((a0,))
    series = compute_coefficients(coeffs, 8)
    for n in range(9):
        expected = np.linalg.matrix_power(a0, n) / math.factorial(n)
        assert np.allclose(series.terms[n], expected, rtol=1e-13, atol=1e-15)


def test_scalar_embedding_orientation_free():
    left = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])), Orientation.LEFT)
    right = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])), Orientation.RIGHT)
    sl = compute_coefficients(left, 15)
    sr = compute_coefficients(right, 15)
    for a, b in zip(sl.terms, sr.terms):
        assert np.array_equal(a, b)


def test_series_identity_term_enforced():
    with pytest.raises(ValueError):
        MatrixSeries((np.zeros((2, 2)),))


def test_explicit_low_orders(example_left, example_pair):
    a0, a1 = example_pair
    assert np.array_equal(compute_coefficients_explicit(example_left, 1), a0)
    manual3 = np.linalg.matrix_power(a0, 3) / 6 + a0 @ a1 / 6 + a1 @ a0 / 3
    assert np.allclose(
        compute_coefficients_explicit(example_left, 3), manual3, atol=1e-14
    )


def test_explicit_matches_recursion_random():
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        for orientation in (Orientation.LEFT, Orientation.RIGHT):
            coeffs = random_family(rng, orientation=orientation)
            series = compute_coefficients(coeffs, 6)
            for n in range(1, 7):
                explicit = compute_coefficients_explicit(coeffs, n)
                scale = max(1.0, np.abs(series.terms[n]).max())
                assert np.abs(explicit - series.terms[n]).max() <= 1e-10 * scale


def test_explicit_word_product_overflow_is_refused():
    # A_0 A_1 ... of 1e12 entries overflows before its weight 1/den brings it
    # back in range; the recursion, which divides at each order, stays finite.
    for mats in ([[[1e12]]], [[[1e12]], [[1e12]]]):
        coeffs = MatrixPolyCoefficients(mats)
        assert np.isfinite(compute_coefficients(coeffs, 27).terms[27]).all()
        with pytest.raises(ValueError, match="order 27: a word product left the float range"):
            compute_coefficients_explicit(coeffs, 27)


def test_explicit_budget_guard(example_left):
    # p = 1 at n = 30 needs 1,346,269 products, refused before enumerating any
    with pytest.raises(TermBudgetError) as err:
        compute_coefficients_explicit(example_left, 30)
    assert str(err.value) == (
        "explicit coefficient of order 30 needs 1346269 weighted products,"
        " over the cap of 1000000"
    )


def explicit_per_word(coeffs, n):
    # The explicit formula one word at a time: a fresh product per word,
    # weighted by float(pi_coefficient(m)) and added onto the total in turn.
    mats = list(coeffs.stack)
    p = coeffs.degree
    if p == 0:
        return (1 / math.factorial(n)) * np.linalg.matrix_power(mats[0], n)
    left = coeffs.orientation is Orientation.LEFT
    total = np.zeros((coeffs.dim, coeffs.dim))
    for q in range(max_total_index(n, p) + 1):
        for m in enumerate_restricted_index_set(n, q, p):
            order = m if left else tuple(reversed(m))
            product = np.array(mats[order[0]])
            for idx in order[1:]:
                product = product @ mats[idx]
            total += float(pi_coefficient(m)) * product
    return total


def _family(rng, dim, degree, integer, orientation):
    if integer:
        mats = rng.integers(-3, 4, size=(degree + 1, dim, dim)).astype(float)
    else:
        mats = rng.standard_normal((degree + 1, dim, dim))
    return MatrixPolyCoefficients(mats, orientation)


# Budgets of engine._BLOCK_DOUBLES: one q a run, runs of several q beside
# q too large for one, and the default, where every oracle stratum is one run.
RUN_BUDGETS = (1, 2**12, engine._BLOCK_DOUBLES)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    n=st.integers(1, 12),
    left=st.booleans(),
    integer=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_explicit_equals_per_word_loop_bit_for_bit(seed, dim, degree, n, left, integer):
    # Every example checks the drawn size and d = 1, where numpy's own sums
    # would run over a contiguous axis and round differently.
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    rng = np.random.default_rng(seed)
    for d in (dim, 1):
        coeffs = _family(rng, d, degree, integer, orientation)
        want = explicit_per_word(coeffs, n).tobytes()
        for budget in RUN_BUDGETS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_BLOCK_DOUBLES", budget)
                assert compute_coefficients_explicit(coeffs, n).tobytes() == want


@pytest.mark.parametrize("budget", RUN_BUDGETS)
@pytest.mark.parametrize("orientation", list(Orientation))
def test_explicit_equals_per_word_loop_on_largest_oracle_stratum(
    monkeypatch, orientation, budget
):
    # (p, d, n) = (1, 4, 17): 2584 words, the largest explicit oracle check.
    coeffs = _family(np.random.default_rng(17), 4, 1, False, orientation)
    monkeypatch.setattr(engine, "_BLOCK_DOUBLES", budget)
    got = compute_coefficients_explicit(coeffs, 17)
    assert got.tobytes() == explicit_per_word(coeffs, 17).tobytes()


def _run_words(n, lo, hi, p, left):
    # Each q's complete words, letters read back through the open parents,
    # with their denominators: {q: (words, dens)}.
    levels = list(engine._word_levels(n, lo, hi, p, left))
    found = {}
    for k, (_, (parent, letter, den)) in enumerate(levels, start=1):
        if not len(letter):
            continue
        letters, index = [letter], parent
        for (open_parent, open_letter), _ in reversed(levels[: k - 1]):
            letters.append(open_letter[index])
            index = open_parent[index]
        words = np.column_stack(letters[::-1]).tolist()
        found[n - k] = ([tuple(w) for w in words], list(den))
    return found


@pytest.mark.parametrize("left", [True, False])
def test_word_levels_reach_the_index_set_in_order_with_its_weights(left):
    for n in range(1, 15):
        for p in range(1, 4):
            top = max_total_index(n, p)
            sets = {q: list(enumerate_restricted_index_set(n, q, p)) for q in range(top + 1)}
            for lo in range(top + 1):
                for hi in range(lo, top + 1):
                    found = _run_words(n, lo, hi, p, left)
                    assert sorted(found) == list(range(lo, hi + 1))
                    for q, (words, dens) in found.items():
                        ms = [w if left else w[::-1] for w in words]
                        assert ms == sets[q]
                        for m, den in zip(ms, dens):
                            assert den == int(den)
                            assert Fraction(1, int(den)) == pi_coefficient(m)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_explicit_weights_on_both_sides_of_the_float_denominator_limit(orientation):
    # 18! <= 2**53 < 19!: the denominators are floats at n = 18 and Python
    # ints at n = 19, and both give the per-word loop's bits.
    left = orientation is Orientation.LEFT
    for n, dtype in ((18, np.float64), (19, object)):
        dens = [den for _, (_, _, den) in engine._word_levels(n, 0, max_total_index(n, 1), 1, left)]
        assert {d.dtype for d in dens} == {np.dtype(dtype)}
        coeffs = _family(np.random.default_rng(n), 2, 1, False, orientation)
        got = compute_coefficients_explicit(coeffs, n)
        assert got.tobytes() == explicit_per_word(coeffs, n).tobytes()


@pytest.mark.parametrize("orientation", list(Orientation))
def test_explicit_peak_memory_near_the_oracle_sizes(orientation):
    # (p, d, n) = (1, 4, 22): 28 657 words, about 1.8 MB a word-by-d^2 array.
    coeffs = _family(np.random.default_rng(22), 4, 1, False, orientation)
    compute_coefficients_explicit(coeffs, 3)
    tracemalloc.start()
    try:
        compute_coefficients_explicit(coeffs, 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("orientation", list(Orientation))
def test_explicit_degree_zero_up_to_the_float_range_of_one_over_n_factorial(orientation):
    # 1 / 170! is the last normal float weight; [[10.0]] keeps 10^n / n! far
    # from both ends of the float range, where a 0 weight would show.
    families = [
        _family(np.random.default_rng(170), 3, 0, False, orientation),
        MatrixPolyCoefficients(np.array([[[10.0]]]), orientation),
    ]
    for coeffs in families:
        want = compute_coefficients(coeffs, 170).terms[170]
        got = compute_coefficients_explicit(coeffs, 170)
        assert got.tobytes() == explicit_per_word(coeffs, 170).tobytes()
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        for n in (171, 200, 400):
            # past it the weight is subnormal or 0: refused, not a wrong 0 or NaN
            with pytest.raises(ValueError, match=f"order {n} of a degree-0 family"):
                compute_coefficients_explicit(coeffs, n)


def test_explicit_never_calls_the_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the explicit formula called the recursion")

    rng = np.random.default_rng(5)
    families = [_family(rng, 3, degree, False, o) for degree in (0, 2) for o in Orientation]
    expected = [explicit_per_word(coeffs, 7) for coeffs in families]
    monkeypatch.setattr(engine, "_expand", refuse)
    monkeypatch.setattr(engine, "compute_coefficients", refuse)
    for coeffs, want in zip(families, expected):
        assert compute_coefficients_explicit(coeffs, 7).tobytes() == want.tobytes()


def test_evaluate_identity_at_zero(example_left):
    series = compute_coefficients(example_left, 5)
    assert np.array_equal(series.value_at(0.0), np.eye(3))


def test_evaluate_scalar_embedding():
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])),)
    series = compute_coefficients(coeffs, 30)
    t = 0.5
    assert series.value_at(t)[0, 0] == pytest.approx(
        scalar_closed_form((1.0, 1.0), t), abs=1e-10
    )


def test_evaluate_against_adaptive_integrator(example_left):
    series = compute_coefficients(example_left, 25)
    t = 0.1
    oracle = integrate_oracle(example_left, t)
    assert np.abs(series.value_at(t) - oracle).max() < 1e-8


def test_tail_bound_zero_family():
    zero = MatrixPolyCoefficients((np.zeros((2, 2)),))
    assert tail_bound(zero, 5, 2.0) == 0.0
    # a zero A_0 with a nonzero A_1 is not a zero family
    nilp = MatrixPolyCoefficients((np.zeros((2, 2)), np.eye(2) * 3.0))
    bound = tail_bound(nilp, 5, 0.5)
    truth = math.exp(1.5 * 0.5**2)
    partial = compute_coefficients(nilp, 5).value_at(0.5)[0, 0]
    assert truth - partial <= bound < math.inf


def test_tail_bound_of_an_overflowing_family_norm_is_inf_without_a_warning():
    # The row sums of 1e308 entries overflow; the suite makes a RuntimeWarning an error.
    huge = MatrixPolyCoefficients((np.full((2, 2), 1e308),))
    assert tail_bound(huge, 3, 0.5) == math.inf


def test_tail_bound_dominates_scalar_truth():
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])),)
    closed = {t: scalar_closed_form((1.0, 1.0), t) for t in (0.0, 0.25, 0.5, 0.9)}
    for t, truth in closed.items():
        for order in range(1, 41):
            partial = compute_coefficients(coeffs, order).value_at(t)[0, 0]
            assert tail_bound(coeffs, order, t) >= abs(truth - partial)


def test_tail_bound_is_finite_for_every_step():
    # a(t) = 1 + t, also past t = 1: the polynomial majorant is entire, so the
    # bound stays finite and holds for every step length.
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])),)
    for t in (1.0, 2.0, 5.0):
        truth = math.exp(t + t * t / 2)
        partial = compute_coefficients(coeffs, 10).value_at(t)[0, 0]
        assert truth - partial <= tail_bound(coeffs, 10, t) < math.inf


def test_tail_bound_decreases_with_order(example_left):
    # orders where the dropped tail, not rounding, dominates the bound
    values = [tail_bound(example_left, n, 0.2) for n in range(2, 15, 4)]
    assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))
    assert values[-1] < 1e-8


def test_residual_small_inside_window(example_left):
    series = compute_coefficients(example_left, 25)
    assert residual(example_left, series, 0.1, 1e-4) < 1e-6


def test_residual_decreases_with_order_until_fd_floor(example_left):
    res = [
        residual(example_left, compute_coefficients(example_left, n), 0.2, 1e-5)
        for n in range(4, 29, 4)
    ]
    assert res[0] > res[1] > res[2]
    for r1, r2 in zip(res[2:], res[3:]):
        assert r2 <= r1 * 1.05
    assert res[-1] < 1e-8


def test_residual_rejects_bad_step(example_left):
    series = compute_coefficients(example_left, 5)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            residual(example_left, series, 0.1, bad)


def test_residual_right_orientation_multiplies_on_the_right(example_right):
    # The RIGHT series solves dR/dt = R A.  Checked against A R instead, as a
    # LEFT family, its defect is the commutator [R, A], far from zero because
    # A_0 and A_1 do not commute.
    series = compute_coefficients(example_right, 25)
    assert residual(example_right, series, 0.1, 1e-4) < 1e-6
    left = MatrixPolyCoefficients(example_right.stack, Orientation.LEFT)
    assert residual(left, series, 0.1, 1e-4) > 1e-2


def test_naive_exponential_at_zero(example_left):
    assert np.array_equal(naive_exponential(example_left, 0.0, 10), np.eye(3))


def test_naive_exponential_autonomous_case():
    a0 = np.array([[0.5, 1.0], [0.0, -0.5]])
    coeffs = MatrixPolyCoefficients((a0,))
    t = 0.8
    series = compute_coefficients(coeffs, 30)
    gap = np.abs(naive_exponential(coeffs, t, 40) - series.value_at(t)).max()
    assert gap <= tail_bound(coeffs, 30, t) + 1e-12


def test_counterexample_exponential_entry():
    coeffs = counterexample_coefficients()
    for t in (0.05, 0.1):
        entry = naive_exponential(coeffs, t, 40)[0, 0]
        # exp(B(t))_11 = 1 + t^3/4 + t^6/96 + ...
        assert entry - (1 + t**3 / 4) == pytest.approx(t**6 / 96, rel=1e-4)


def test_counterexample_series_beats_exponential():
    rows = counterexample_report(times=(1.0,), order=30, h=1e-4)
    row = rows[0]
    assert row.series_residual < 1e-6
    assert row.exponential_residual > 1e-2
    assert row.ratio >= 1e3


def test_recenter_constant_and_linear(example_pair):
    a0, a1 = example_pair
    const = MatrixPolyCoefficients((a0,))
    assert np.array_equal(recenter(const, 2.0).stack[0], a0)
    linear = MatrixPolyCoefficients((a0, a1))
    shifted = recenter(linear, 0.5)
    assert np.allclose(shifted.stack[0], a0 + 0.5 * a1, atol=1e-15)
    assert np.array_equal(shifted.stack[1], a1)


def test_recenter_agrees_with_evaluation():
    rng = np.random.default_rng(7)
    mats = tuple(rng.standard_normal((3, 3)) for _ in range(4))
    coeffs = MatrixPolyCoefficients(mats)
    t0 = 0.37
    shifted = recenter(coeffs, t0)
    for s in (-0.2, 0.0, 0.45, 1.1):
        assert np.allclose(
            shifted.value_at(s), coeffs.value_at(t0 + s), rtol=1e-12, atol=1e-12
        )
    back = recenter(shifted, -t0)
    for orig, round_tripped in zip(coeffs.stack, back.stack):
        assert np.allclose(orig, round_tripped, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("t0", [1e200, -1e200, np.float64(1e200), 10**400])
def test_recenter_overflowing_origin_is_value_error(example_pair, t0):
    # t0^3, or 10^400 as a float, overflows: the constructor's one-line
    # error, with no OverflowError and no numpy warning.
    a0, a1 = example_pair
    cubic = MatrixPolyCoefficients((a0, a1, a0, a1))
    with pytest.raises(ValueError, match="non-finite entry"):
        recenter(cubic, t0)


def test_recenter_int_origin_equals_float_origin():
    # 5^30 is past the int64 range: the powers are floats, not an object array.
    coeffs = MatrixPolyCoefficients(np.random.default_rng(3).standard_normal((31, 2, 2)))
    assert recenter(coeffs, 5).stack.tobytes() == recenter(coeffs, 5.0).stack.tobytes()


def test_solve_stepped_grid_and_errors(example_left):
    with pytest.raises(ValueError):
        solve_stepped(example_left, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        solve_stepped(example_left, math.inf, 0.1, 5)
    traj = solve_stepped(example_left, 1.0, 0.3, 10)
    assert [round(t, 12) for t in traj.times.tolist()] == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert traj.values.shape == (5, 3, 3) and traj.tail_bounds.shape == (5,)
    assert np.array_equal(traj.values[0], np.eye(3))
    assert traj.tail_bounds[0] == 0.0
    # The lone t = 0 point: one row, R(0) = I exactly, bound 0.
    lone = solve_stepped(example_left, 0.0, 0.5, 10)
    assert lone.times.tolist() == [0.0] and lone.tail_bounds.tolist() == [0.0]
    assert lone.values.shape == (1, 3, 3) and np.array_equal(lone.values[0], np.eye(3))
    for column in (*vars(traj).values(), *vars(lone).values()):
        with pytest.raises(ValueError):
            column[-1] = 5.0  # read-only


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_step_and_time_reject_non_finite(example_left, bad):
    with pytest.raises(ValueError, match=f"step must be finite and > 0, got {bad}"):
        solve_stepped(example_left, 1.0, bad, 5)
    with pytest.raises(ValueError, match=f"time must be finite and >= 0, got {bad}"):
        tail_bound(example_left, 5, bad)


@pytest.mark.parametrize("t_final", [0.05, 0.25, 0.99, 1.0, 1.5, 3.0])
def test_solve_stepped_grid_has_no_sliver(t_final):
    # step = T / steps can leave steps * step an ulp short of T; the grid
    # must still have exactly steps + 1 points ending at T.
    coeffs = MatrixPolyCoefficients((np.zeros((1, 1)),))
    for steps in range(1, 61):
        times = solve_stepped(coeffs, t_final, t_final / steps, 1).times.tolist()
        assert len(times) == steps + 1 and times[-1] == t_final, steps
        assert min(np.diff(times)) > 0.5 * t_final / steps, steps


def test_grid_ends_at_t_final_with_exact_step_lengths():
    # 3 * (0.9 / 3) is 0.8999999999999999: a two-decimal T over its step
    # count, as the bdp_transient pool draws them, leaves a float sliver.
    assert 3 * (0.9 / 3) != 0.9
    for t_final, steps in ((0.9, 3), (0.3, 37), (0.7, 35), (1.37, 20), (2.0, 1)):
        times, hs = _grid(t_final, t_final / steps)
        assert len(times) == steps + 1 and len(hs) == steps
        assert times[0] == 0.0 and times[-1] == t_final
        assert hs == np.diff(times).tolist()
        for t_prev, t_next, h in zip(times, times[1:], hs):
            assert Fraction(h) == Fraction(t_next) - Fraction(t_prev)
    assert _grid(0.0, 0.5) == ([0.0], [])


def test_solve_stepped_refuses_step_count_over_cap(example_left):
    for step in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)):
        with pytest.raises(ValueError, match=str(MAX_STEPS)):
            solve_stepped(example_left, 1.0, step, 5)
    # The count is the grid's steps, ceil(t / step): inf for a subnormal step.
    for step in (1e-300, 1.0 / (MAX_STEPS + 1)):
        with pytest.raises(TermBudgetError) as err:
            _grid(1.0, step)
        assert (err.value.count, err.value.cap) == (math.ceil(1.0 / step), MAX_STEPS)
    with pytest.raises(TermBudgetError) as err:
        _grid(1.0, 5e-324)
    assert err.value.count == math.inf
    assert str(err.value) == (
        "final time 1.0 over step 5e-324 needs inf steps, over the cap of 1000000"
    )
    assert len(_grid(1.0, 1.0 / MAX_STEPS)[1]) == MAX_STEPS  # at the cap itself, admitted


def test_a_refused_stepped_solve_builds_no_grid():
    # MAX_STEPS steps of a 12x12 family: the peak is counted from the step
    # count, where the grid's two lists of 10^6 + 1 floats held 72 MB.
    coeffs = MatrixPolyCoefficients((np.eye(12),))
    tracemalloc.start()
    try:
        with pytest.raises(TermBudgetError, match=r"^12x12 propagators over 1000000 steps needs"):
            solve_stepped(coeffs, 1e6, 1.0, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_solve_stepped_single_step_equals_direct(example_left):
    # final time below the step size collapses to one local expansion
    traj = solve_stepped(example_left, 0.2, 0.5, 15)
    direct = compute_coefficients(example_left, 15).value_at(0.2)
    assert len(traj.times) == 2
    assert np.array_equal(traj.values[1], direct)
    assert traj.tail_bounds[1] == tail_bound(example_left, 15, 0.2)


def test_solve_stepped_overflowed_step_is_inf_not_nan(example_left):
    # one step of length 1e8: the value overflows entrywise and exp of the
    # majorant's integral too, so the bound is inf; composing with R(0) = I
    # must not turn inf * 0 into NaN
    with np.errstate(over="ignore"):
        traj = solve_stepped(example_left, 1e8, 1e8, 40)
        direct = compute_coefficients(example_left, 40).value_at(1e8)
    assert traj.tail_bounds[-1] == math.inf
    assert np.array_equal(traj.values[-1], direct)


def test_solve_stepped_overflowed_composition_is_inf_not_nan():
    # The composed value overflows from the second step; at the fourth, BLAS
    # turns inf * 0 and inf - inf into NaN entries, and the bound stays inf.
    coeffs = MatrixPolyCoefficients((1e200 * np.array([[1.0, -1.0], [1.0, 1.0]]),))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve_stepped(coeffs, 4.0, 1.0, 1)
    assert np.isnan(traj.values[-1]).any()
    assert traj.tail_bounds.tolist() == [0.0, math.inf, math.inf, math.inf, math.inf]


def test_overflowed_evaluation_warns_nothing(example_left):
    series = compute_coefficients(example_left, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = series.value_at(1e8)
    assert np.isinf(value).any()


def test_counterexample_counts_its_whole_report_before_any_work(monkeypatch):
    # Three exponentials and three series values each time: about
    # 3 len(times) (exp_terms + order) matrix products, counted first.
    def refuse(*args, **kwargs):
        raise AssertionError("the report started its work")

    monkeypatch.setattr(engine, "compute_coefficients", refuse)
    monkeypatch.setattr(engine, "naive_exponential", refuse)
    with pytest.raises(TermBudgetError) as err:
        counterexample_report(times=(0.5,), exp_terms=10**6)
    assert str(err.value) == (
        "counterexample with 1000000 Taylor terms, order 30 and 1 times"
        " needs 3000090 matrix products, over the cap of 1000000"
    )
    times = (0.1,) * 5000  # the terms of each call are few, the times many
    with pytest.raises(TermBudgetError) as err:
        counterexample_report(times=times)
    assert err.value.count == 3 * 5000 * (40 + 30)


def test_naive_exponential_refusal_names_its_terms(example_left):
    with pytest.raises(TermBudgetError) as err:
        naive_exponential(example_left, 0.5, 10**6 + 1)
    assert str(err.value) == (
        "exp(B(t)) to 1000001 Taylor terms needs 1000001 matrix products, over the cap of 1000000"
    )


def test_naive_exponential_overflowing_time_names_it(example_left):
    with pytest.raises(ValueError, match=r"time 1e\+200 .*t\^2 overflows"):
        naive_exponential(example_left, 1e200)


def test_tail_bound_certifies_a_tiny_linear_part():
    # b t = 5e-21 rounds 1 - b t to 1; the bound must still cover the true tail
    coeffs = MatrixPolyCoefficients((np.array([[2.0]]), np.array([[1e-20]])))
    truth = math.exp(2.0 + 0.5e-20)
    partial = compute_coefficients(coeffs, 10).value_at(1.0)[0, 0]
    bound = tail_bound(coeffs, 10, 1.0)
    assert truth - partial > 1e-5
    assert truth - partial <= bound <= 2 * (truth - partial)


def test_solve_stepped_scalar_accuracy():
    coeffs = MatrixPolyCoefficients((np.array([[1.0]]), np.array([[1.0]])),)
    traj = solve_stepped(coeffs, 2.0, 0.25, 20)
    truth = math.exp(2.0 + 2.0)
    assert traj.values[-1, 0, 0] == pytest.approx(truth, rel=1e-8)
    assert abs(traj.values[-1, 0, 0] - truth) <= traj.tail_bounds[-1] + 1e-12


def test_solve_stepped_matches_integrator(example_left):
    traj = solve_stepped(example_left, 1.0, 0.125, 20)
    oracle = integrate_oracle(example_left, 1.0)
    gap = np.abs(traj.values[-1] - oracle).max()
    assert gap < 1e-9
    assert gap <= traj.tail_bounds[-1]


def test_solve_stepped_halving_consistency(example_left):
    coarse = solve_stepped(example_left, 1.0, 0.25, 20)
    fine = solve_stepped(example_left, 1.0, 0.125, 20)
    gap = np.abs(coarse.values[-1] - fine.values[-1]).max()
    assert gap <= coarse.tail_bounds[-1] + fine.tail_bounds[-1] + 1e-12


def test_solve_stepped_right_orientation(example_right):
    traj = solve_stepped(example_right, 0.8, 0.1, 20)
    oracle = integrate_oracle(example_right, 0.8)
    assert np.abs(traj.values[-1] - oracle).max() < 1e-9


def stepped_reference(coeffs: MatrixPolyCoefficients, t_final: float, step: float, order: int):
    """solve_stepped as one plain loop over the steps, matched bit for bit by the stacked solve.

    Every kernel is written out here on single 2-D matrices, in the order of
    its sums: the binomial shift, the recursion, Horner, the norms, and the
    local bound with its shift rounding and the rounding of the product.
    Only the grid is shared.  A step whose shift (an overflowed power of its
    start or a non-finite family) or series is not finite raises the
    solver's one refusal.  Returns [(t, value, bound)].
    """
    left = coeffs.orientation is Orientation.LEFT
    dim, p = coeffs.dim, coeffs.degree

    def gamma(n):
        u = 2.0**-53
        return math.nextafter(n * u / (1.0 - n * u), math.inf)

    def up(x, ops):
        return x * (1.0 + gamma(2 * ops + 4))

    def norm(mat):
        return up(float(np.abs(mat).sum(axis=0 if left else 1).max()), dim)

    unshifted = [norm(m) for m in coeffs.stack]

    def local_bound(local, t0, h):
        a = [norm(m) for m in local.stack]
        rho = [0.0] * (p + 1)
        for j in range(p if t0 else 0):
            c = sum(math.comb(k, j) * abs(t0) ** (k - j) * unshifted[k] for k in range(j, p + 1))
            rho[j] = up(gamma(p + 4) * c, p + 5)
        primed = [up(aj * (1.0 + gamma(dim * (p + 1) + 2)) + r, 3) for aj, r in zip(a, rho)]
        if not any(primed):
            return 0.0
        exponent, power = 0.0, h
        for j, aj in enumerate(primed):
            if aj:
                exponent += aj * power / (j + 1)
            power *= h
        try:
            growth = up(math.exp(up(exponent, p + 3)), 2)
        except OverflowError:
            return math.inf
        total = up(growth * (1.0 + gamma(2 * order + 1)), 2)
        r = [1.0]
        for n in range(1, order + 1):
            acc = 0.0
            for j in range(min(p + 1, n)):
                acc += a[j] * r[n - 1 - j]
            r.append(acc / n)
        partial = 0.0
        for c in reversed(r):
            partial = partial * h + c
        partial *= 1.0 - gamma(order * (p + 4) + 2)
        if not partial <= total < math.inf:
            return math.inf
        return math.nextafter(total - partial, math.inf)

    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    out = [(0.0, np.eye(coeffs.dim), 0.0)]
    times, hs = _grid(t_final, step)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t_prev, t_next, h) in enumerate(zip(times, times[1:], hs), start=1):
            refusal = ValueError(f"the series overflows on the step from t = {t_prev}")
            shifted = np.zeros_like(coeffs.stack)
            for j, acc in enumerate(shifted):
                for i in range(j, p + 1):
                    try:
                        power = t_prev ** (i - j)
                    except OverflowError:
                        raise refusal from None
                    acc += math.comb(i, j) * power * coeffs.stack[i]
            if not np.isfinite(shifted).all():
                raise refusal
            local = MatrixPolyCoefficients(shifted, coeffs.orientation)
            terms = [np.eye(coeffs.dim)]
            for n in range(1, order + 1):
                acc = np.zeros((coeffs.dim, coeffs.dim))
                for j in range(min(p, n - 1) + 1):
                    if left:
                        acc += local.stack[j] @ terms[n - 1 - j]
                    else:
                        acc += terms[n - 1 - j] @ local.stack[j]
                acc /= n
                terms.append(acc)
            if not np.isfinite(terms).all():
                raise refusal
            r_loc = np.array(terms[-1])
            for term in terms[-2::-1]:
                r_loc *= h
                r_loc += term
            bound_loc = local_bound(local, t_prev, h)
            if k == 1:
                current, err = r_loc, bound_loc
            else:
                norm_prev = norm(current)
                norm_loc = norm(r_loc)
                current = r_loc @ current if left else current @ r_loc
                err = bound_loc * (norm_prev + err) + norm_loc * (err + gamma(dim) * norm_prev)
                err = math.inf if math.isnan(err) else up(err, 6)
            out.append((t_next, current, err))
    return out


def assert_solve_matches_reference(coeffs, t_final, step, order):
    try:
        expected = stepped_reference(coeffs, t_final, step, order)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            solve_stepped(coeffs, t_final, step, order)
        assert str(info.value) == str(exc)
        return
    traj = solve_stepped(coeffs, t_final, step, order)
    assert traj.times.tolist() == [t for t, _, _ in expected]
    # An overflowed value can have NaN entries, but its bound is inf, never NaN.
    bounds = traj.tail_bounds.tolist()
    assert not np.isnan(bounds).any()
    assert bounds == [bound for _, _, bound in expected]
    assert len(traj.values) == len(expected)
    for value, (_, expected_value, _) in zip(traj.values, expected):
        # Bit for bit: signed zeros and the bits of any overflow-made NaN too.
        assert value.shape == expected_value.shape
        assert value.tobytes() == expected_value.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 20),
    degree=st.integers(0, 3),
    left=st.booleans(),
    order=st.integers(1, 30),
    steps=st.integers(0, 40),
    partial=st.booleans(),
    log_step=st.floats(-3.0, 8.0),
    log_scale=st.sampled_from([-2.0, 0.0, 1.0, 60.0, 200.0]),
)
@settings(max_examples=150, deadline=None)
def test_solve_stepped_equals_per_step_loop(
    seed, dim, degree, left, order, steps, partial, log_step, log_scale
):
    # steps = 0 without a partial step is the lone t = 0 point; a large scale
    # or step overflows the series (refused) or the values (inf bounds).
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((degree + 1, dim, dim)) * 10.0**log_scale
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    coeffs = MatrixPolyCoefficients(mats, orientation)
    step = 10.0**log_step
    assert_solve_matches_reference(coeffs, step * (steps + 0.5 * partial), step, order)


M = np.array([[1.0, 2.0], [3.0, 4.0]])
A_AUTONOMOUS = np.random.default_rng(4).standard_normal((8, 8))


@pytest.mark.parametrize(
    "mats, t_final, step, order",
    [
        # several blocks: 8x8 at order 30 takes 33 steps a block, 2x2 at order 20 takes 780
        (np.random.default_rng(1).standard_normal((2, 8, 8)), 1.92, 0.01, 30),
        (np.random.default_rng(2).standard_normal((3, 2, 2)), 2.0, 0.001, 20),
        # d = 40: one step a block
        (np.random.default_rng(3).standard_normal((2, 40, 40)) / 40, 0.3, 0.05, 40),
        # autonomous families, one expansion a block: 101 steps in 4 blocks of
        # 33, the last step partial; degree 0, and degree 2 whose A_1 holds
        # zeros of both signs and whose A_2 is zero
        (A_AUTONOMOUS[None], 1.005, 0.01, 30),
        (np.stack([A_AUTONOMOUS, -0.0 * A_AUTONOMOUS, np.zeros((8, 8))]), 1.005, 0.01, 30),
        # refusals: the series at the first step, the shift at the second
        ((1e200 * M,), 1.0, 2.0, 5),
        ((M, 1e150 * M), 10.0, 1.0, 5),
        # t0^2 overflows a float at the fourth step, inside the first block
        ((M, M, 1e-300 * M), 2e154, 5e153, 5),
        # A_1 is 1e20 times A_0, over steps of 5e-22: the shift mixes magnitudes
        ((np.array([[1.0]]), np.array([[-1e20]])), 40 * 5e-22, 5e-22, 16),
        ((M,), 1.0, 0.5, 0),
        ((M,), 0.0, 0.5, 0),
    ],
)
@pytest.mark.parametrize("orientation", list(Orientation))
def test_solve_stepped_blocks_and_refusals_equal_per_step_loop(
    mats, t_final, step, order, orientation
):
    coeffs = MatrixPolyCoefficients(mats, orientation)
    assert_solve_matches_reference(coeffs, t_final, step, order)


def float_bits(values) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


ROW_KINDS = ("random", "t0 = 0", "zero family", "exp overflow", "series overflow")


@given(
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    degree=st.integers(0, 3),
    order=st.integers(2, 30),
)
@settings(max_examples=100, deadline=None)
def test_stacked_local_bound_rows_equal_one_row_calls(kinds, seed, dim, degree, order):
    rng = np.random.default_rng(seed)
    unshifted = (rng.random(degree + 1) * 10.0 ** rng.uniform(-2, 2)).tolist()
    rows, starts, hs = [], [], []
    for kind in kinds:
        norms, t0, h = rng.random(degree + 1) * 10.0 ** rng.uniform(-2, 2), rng.uniform(0, 5), 10.0 ** rng.uniform(-3, 0)
        if kind == "t0 = 0":
            t0 = 0.0
        elif kind == "zero family":
            norms, t0 = np.zeros(degree + 1), 0.0
        elif kind == "exp overflow":  # integral of a' over the step is above 1e3
            norms[0], h = 1e3 + norms[0], 10.0
        elif kind == "series overflow":  # r_2 = a_0^2 / 2 overflows, exp(a_0 h) does not
            norms[0], h = 1e300, 1e-300
        rows.append(norms)
        starts.append(t0)
        hs.append(h)
    stacked = _local_bound(np.array(rows), unshifted, _powers(starts, degree), dim, order, hs)
    singles = [
        _local_bound(row[None], unshifted, _powers([t0], degree), dim, order, [h])[0]
        for row, t0, h in zip(rows, starts, hs)
    ]
    assert float_bits(stacked) == float_bits(singles)
    for kind, bound in zip(kinds, stacked):
        if kind == "zero family":
            assert bound == 0.0
        elif kind in ("exp overflow", "series overflow"):
            assert bound == math.inf
        else:
            assert 0.0 < bound < math.inf


def test_solve_stepped_makes_one_bound_call(monkeypatch):
    rows = []

    def counting(norms, *args):
        rows.append(len(norms))
        return bound(norms, *args)

    bound = engine._local_bound
    monkeypatch.setattr(engine, "_local_bound", counting)
    mats = np.random.default_rng(1).standard_normal((2, 8, 8))
    traj = solve_stepped(MatrixPolyCoefficients(mats), 1.92, 0.01, 30)
    # 8x8 at order 30 takes 33 steps a block: 192 steps are 6 blocks, bounded
    # by one call with one row of norms a step.
    assert len(traj.times) == 193
    assert rows == [192]


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("autonomous", [True, False])
def test_solve_stepped_expands_an_autonomous_block_once(monkeypatch, orientation, autonomous):
    starts = []
    layouts = []

    def counting(mats, orientation, start, order):
        starts.append(len(start))
        return expand(mats, orientation, start, order)

    def recording(*args):
        values, finite = propagators(*args)
        layouts.append(values.flags.c_contiguous)
        return values, finite

    expand = engine._expand
    propagators = engine._local_propagators
    monkeypatch.setattr(engine, "_expand", counting)
    monkeypatch.setattr(engine, "_local_propagators", recording)
    mats = np.zeros((3, 8, 8))
    mats[0] = np.random.default_rng(5).standard_normal((8, 8))
    mats[2] = 0.0 if autonomous else 1e-3
    traj = solve_stepped(MatrixPolyCoefficients(mats, orientation), 1.005, 0.01, 30)
    # 101 steps, the last one partial, in blocks of 33.
    assert len(traj.times) == 102
    assert starts == ([1] * 4 if autonomous else [33, 33, 33, 2])
    # One series serves the block, and its values keep the stacked layout.
    assert layouts == [True] * 4
