"""Certified bounds against a 40-digit reference, with no tolerance.

The reference integrates the same equations in mpmath at 40 significant
digits: on each grid step it shifts the family exactly to the step's start,
runs the Taylor recursion until the terms fall below 1e-36 of the sum, and
composes the steps.  Its own error is some 1e-30 relative, far below any
bound the solver can certify in doubles, so `error <= bound` is asserted as
it stands.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evoseries.bdp import (
    BirthDeathSpec,
    Boundary,
    _diagonal_norm_bounds,
    _Stencil,
    generator_family,
    solve_bdp,
)
from evoseries.engine import (
    MatrixPolyCoefficients,
    Orientation,
    _expand,
    _gamma,
    _horner,
    _norm_bounds,
    _powers,
    _primed_norms,
    _shift_rounding,
    _shrunk_partial_sum,
    recenter,
    solve_stepped,
)

DIGITS = 40
TINY = mpmath.mpf(10) ** -36


def mp_array(values) -> np.ndarray:
    """An object array of mpf, each the exact value of its double."""
    return np.vectorize(mpmath.mpf, otypes=[object])(np.asarray(values, dtype=float))


def fractions(values) -> np.ndarray:
    """An object array of Fraction, each the exact value of its double."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(values, dtype=float))


def operator_norm(m, left: bool):
    # LEFT acts on columns (max column sum), RIGHT on rows (max row sum).
    return max(abs(m).sum(axis=0 if left else 1))


def mp_stepped(mats, left: bool, start, times) -> list[np.ndarray]:
    """X(t) for X' = A(t) X (left) or X A(t), X(times[0]) = start, at every grid time.

    mats holds A_0..A_p as mpf object arrays.  Each step is split until
    ||A|| h <= 4, so that no Taylor term is more than e^4 larger than the sum
    and no more than a few digits cancel.  Sizes are largest entries, which
    A X (left, row sums of |A|) or X A (right, column sums) enlarge at most
    by the norm taken here.
    """
    p = len(mats) - 1
    norms = [max(abs(m).sum(axis=1 if left else 0)) for m in mats]
    out, x = [start], start
    for t0, t1 in zip(times, times[1:]):
        a, b = mpmath.mpf(t0), mpmath.mpf(t1)
        bound = sum(n * max(abs(a), abs(b)) ** k for k, n in enumerate(norms))
        pieces = max(1, int(mpmath.ceil(bound * (b - a) / 4)))
        for i in range(pieces):
            s0 = a + (b - a) * i / pieces
            h = (b - a) / pieces
            shifted = [
                sum(mpmath.binomial(k, j) * s0 ** (k - j) * mats[k] for k in range(j, p + 1))
                for j in range(p + 1)
            ]
            # Past n = 8 each term is at most 4/9 of the largest of the p + 1
            # before it, so once those are below 1e-36 of the sum, so is the rest.
            terms, sizes, total = [x], [], x
            for n in itertools.count(1):
                acc = sum(
                    (shifted[j] @ terms[n - 1 - j]) if left else (terms[n - 1 - j] @ shifted[j])
                    for j in range(min(p, n - 1) + 1)
                )
                terms.append(acc / n)
                term = terms[-1] * h**n
                total = total + term
                sizes.append(max(abs(term).flat))
                if n > 8 and max(sizes[-(p + 1) :]) <= TINY * max(abs(total).flat):
                    break
            x = total
        out.append(x)
    return out


def old_window_base(mats: np.ndarray, left: bool) -> float:
    """b of the geometric fit ||A_j|| <= d b^j at the origin, whose window was b h < 1."""
    norms = [float(np.abs(m).sum(axis=0 if left else 1).max()) for m in mats]
    d = norms[0] if norms[0] > 0 else max(norms)
    return max([(n / d) ** (1.0 / j) for j, n in enumerate(norms) if j and n > 0], default=0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    left=st.booleans(),
    order=st.integers(1, 20),
    steps=st.integers(1, 3),
    past_window=st.booleans(),
    log_step=st.floats(-1.5, 0.0),
    growth=st.floats(0.5, 6.0),
    positive=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_stepped_solve_error_within_bound(
    seed, dim, degree, left, order, steps, past_window, log_step, growth, positive
):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((degree + 1, dim, dim))
    if positive:
        # Nonnegative entries make ||R(t)|| come close to the majorant's
        # exp(int ||A||), so rounding, not a loose majorant, sets the margin.
        mats = np.abs(mats)
    step = 10.0**log_step
    t_final = steps * step
    if past_window and degree:
        # A_j times c^j multiplies b by c: to b h = 2, where the geometric fit gave inf
        c = 2.0 / (step * old_window_base(mats, left))
        mats *= (c ** np.arange(degree + 1))[:, None, None]
    # Then one factor sets int_0^T sum_j ||A_j|| s^j ds, which bounds log ||R(T)||.
    norms = [float(np.abs(m).sum(axis=0 if left else 1).max()) for m in mats]
    mats *= growth / sum(n * t_final ** (j + 1) / (j + 1) for j, n in enumerate(norms))
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    traj = solve_stepped(MatrixPolyCoefficients(mats, orientation), t_final, step, order)
    with mpmath.workdps(DIGITS):
        reference = mp_stepped(
            [mp_array(m) for m in mats], left, mp_array(np.eye(dim)), traj.times.tolist()
        )
        for t, value, bound, exact in zip(traj.times, traj.values, traj.tail_bounds, reference):
            gap = abs(mp_array(value) - exact)
            error = max(gap.sum(axis=0 if left else 1))
            assert math.isfinite(bound) and error <= bound, (t, error)


@given(
    lam=st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 1.5)),
    mu=st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 1.5)),
    boundary=st.sampled_from(Boundary),
    states=st.integers(3, 8),
    t_final=st.floats(0.1, 2.0),
    steps=st.integers(1, 4),
    order=st.integers(5, 30),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_bdp_row_error_within_bound(lam, mu, boundary, states, t_final, steps, order, seed):
    spec = BirthDeathSpec(lam=lam, mu=mu, states=states, boundary=boundary)
    p0 = np.random.default_rng(seed).dirichlet(np.ones(states))
    traj, _ = solve_bdp(spec, t_final, steps, order, initial=p0)
    with mpmath.workdps(DIGITS):
        mats = [mp_array(m) for m in generator_family(spec).stack]
        reference = mp_stepped(mats, False, mp_array(p0[None, :]), traj.times.tolist())
        for dist, exact, bound in zip(traj.distributions, reference, traj.tail_bounds):
            error = abs(mp_array(dist[None, :]) - exact).sum()
            assert math.isfinite(bound) and error <= bound, (error, bound)


def test_bound_covers_rounding_where_the_majorant_is_exact():
    # With nonnegative 1x1 and 2x2 families ||R(t)|| is close to the majorant's
    # exp(int ||A||), and at order 25 with growth below 1 the dropped tail is
    # far below an ulp: the margin of the bound is its rounding terms alone.
    # A truncation-only bound, exp(int ||A||) minus the partial sum, fails
    # here for a few families in a hundred.
    rng = np.random.default_rng(7)
    with mpmath.workdps(DIGITS):
        for _ in range(250):
            dim, degree, steps = (int(rng.integers(1, k)) for k in (3, 4, 3))
            mats = np.abs(rng.standard_normal((degree + 1, dim, dim)))
            step = float(10 ** rng.uniform(-1.5, 0.0))
            norms = mats.sum(axis=1).max(axis=1)
            mass = sum(n * (steps * step) ** (j + 1) / (j + 1) for j, n in enumerate(norms))
            mats *= rng.uniform(0.1, 1.0) / mass
            traj = solve_stepped(MatrixPolyCoefficients(mats), steps * step, step, 25)
            reference = mp_stepped(
                [mp_array(m) for m in mats], True, mp_array(np.eye(dim)), traj.times.tolist()
            )
            rows = zip(traj.times, traj.values, traj.tail_bounds, reference)
            for t, value, bound, exact in rows:
                error = max(abs(mp_array(value) - exact).sum(axis=0))
                assert error <= bound, (mats.tolist(), t, error, bound)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    left=st.booleans(),
    log_t0=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_shift_rounding_bounds_the_float_shift(seed, dim, degree, left, log_t0):
    mats = np.random.default_rng(seed).standard_normal((degree + 1, dim, dim))
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    coeffs = MatrixPolyCoefficients(mats, orientation)
    t0 = 10.0**log_t0
    shifted = recenter(coeffs, t0).stack
    norms = _norm_bounds(coeffs.stack, orientation).tolist()
    at_zero = _shift_rounding(norms, _powers([0.0], degree))
    assert at_zero.tolist() == [[0.0] * (degree + 1)]  # the shift to 0 is exact
    [rho] = _shift_rounding(norms, _powers([t0], degree)).tolist()
    with mpmath.workdps(DIGITS):
        exact = [mp_array(m) for m in mats]
        for j, rho_j in enumerate(rho):
            shift_j = sum(
                mpmath.binomial(k, j) * mpmath.mpf(t0) ** (k - j) * exact[k]
                for k in range(j, degree + 1)
            )
            gap = abs(mp_array(shifted[j]) - shift_j)
            assert max(gap.sum(axis=0 if left else 1)) <= rho_j, (j, rho_j)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    left=st.booleans(),
    signed=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_a_float_product_is_within_gamma_d_of_the_exact_one(seed, dim, left, signed):
    # The composition lemma solve_stepped adds per step: with the orientation's
    # induced norm, ||fl(R_loc R_prev) - R_loc R_prev|| <= gamma_d ||R_loc|| ||R_prev||,
    # checked exactly in Fractions of the float entries.
    rng = np.random.default_rng(seed)
    r_loc, r_prev = rng.standard_normal((2, dim, dim)) * 10.0 ** rng.uniform(-3, 3, (2, dim, dim))
    if not signed:
        r_loc, r_prev = np.abs(r_loc), np.abs(r_prev)
    product = np.matmul(r_loc, r_prev) if left else np.matmul(r_prev, r_loc)
    loc, prev = fractions(r_loc), fractions(r_prev)
    exact = loc @ prev if left else prev @ loc
    gap = fractions(product) - exact
    allowance = Fraction(_gamma(dim)) * operator_norm(loc, left) * operator_norm(prev, left)
    assert operator_norm(gap, left) <= allowance


def exact_terms(mats, start, order: int, left: bool) -> list:
    """T_0 = start and n T_n = sum_j A_j T_{n-1-j} (RIGHT: T_{n-1-j} A_j), in Fractions."""
    terms = [start]
    for n in range(1, order + 1):
        acc = sum(
            (mats[j] @ terms[n - 1 - j]) if left else (terms[n - 1 - j] @ mats[j])
            for j in range(min(len(mats) - 1, n - 1) + 1)
        )
        terms.append(acc / n)
    return terms


def exact_scalar_series(a, r0, order: int) -> list:
    """r_0 and n r_n = a_0 r_{n-1} + ... + a_{n-1} r_0, in Fractions."""
    r = [r0]
    for n in range(1, order + 1):
        r.append(sum(a[j] * r[n - 1 - j] for j in range(min(len(a), n))) / n)
    return r


def float_above(x: Fraction) -> float:
    """The least float >= x."""
    y = float(x)
    return y if Fraction(y) >= x else math.nextafter(y, math.inf)


def assert_recursion_lemma(computed, mats, start, dim: int, left: bool, norm, start_norm):
    # _local_bound's induction: with floats a_j >= ||A_j||, a' = _primed_norms(a)
    # (the shift to the origin 0 is exact) and r, r' their scalar series from
    # ||T_0||, every computed term T~_n of the float recursion is within
    # r'_n - r_n of the exact term T_n of the same float inputs, and ||T~_n|| <= r'_n.
    order = len(computed) - 1
    exact = exact_terms(mats, start, order, left)
    a = [float_above(operator_norm(m, left)) for m in mats]
    primed = _primed_norms(np.array([a]), a, _powers([0.0], len(a) - 1), dim)[0]
    r = exact_scalar_series(fractions(a), start_norm, order)
    r_primed = exact_scalar_series(fractions(primed), start_norm, order)
    for n, (ours, theirs) in enumerate(zip(computed, exact)):
        ours = fractions(ours)
        assert norm(ours - theirs) <= r_primed[n] - r[n], n
        assert norm(ours) <= r_primed[n], n


def random_family(rng, degree: int, shape, signed: bool) -> np.ndarray:
    # Entries of mixed sizes, nonnegative or of both signs.
    mats = rng.standard_normal((degree + 1, *shape)) * 10.0 ** rng.uniform(-2, 1, (degree + 1, 1, 1))
    return mats if signed else np.abs(mats)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    left=st.booleans(),
    order=st.integers(1, 10),
    signed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dense_recursion_terms_within_the_primed_series(seed, dim, degree, left, order, signed):
    rng = np.random.default_rng(seed)
    mats = random_family(rng, degree, (dim, dim), signed)
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    computed = _expand(mats, orientation, np.eye(dim), order)
    assert_recursion_lemma(
        computed,
        [fractions(m) for m in mats],
        fractions(np.eye(dim)),
        dim,
        left,
        lambda m: operator_norm(m, left),
        Fraction(1),
    )


def a_sum_that_rounds_up_again_and_again(order: int) -> list[float]:
    """Coefficients a_0..a_(N-1) of a 1 x 1 family whose order-N term rounds up N/2 times.

    That term sums its N products in the order of j.  The two largest come
    first: a_k T_m and its twin a_(m-1) T_(k+1), with k = N // 2 and m = N - 1 - k,
    of degree 2 and scaled so that their sum lies just above a power of two.
    Each later product a_j T_(N-1-j) is 0.55 of that sum's ulp, so each of
    those N - 1 - k additions rounds up by 0.45 ulp.  The a_j are set from
    the float terms of a plain loop, refined a few times.
    """
    k = order // 2
    m = order - 1 - k
    scale = 1.0
    for _ in range(2):
        a = [0.0] * order
        a[0] = 1.0
        a[m - 1] += scale
        a[k] += scale
        for _ in range(4):
            t = [1.0]
            for n in range(1, order):
                acc = 0.0
                for j in range(n):
                    acc += a[j] * t[n - 1 - j]
                t.append(acc / n)
            head = 0.0
            for j in range(k + 1):
                head += a[j] * t[order - 1 - j]
            for j in range(k + 1, order):
                a[j] = 0.55 * math.ulp(head) / t[order - 1 - j]
        scale = math.sqrt(1.001 * 2.0 ** math.ceil(math.log2(head)) / head)
    return a


def test_a_long_sum_of_products_needs_the_slack_of_the_primed_norms():
    # The order-100 term's one sum rounds up by about 49 * 0.45 ulps, some
    # 40 u of its value.  Its products are all of degree 2 or more, so the
    # _up(., 3) in _primed_norms alone, gamma_10 a power, would allow about
    # 20 u; the slack gamma_(p+3) of a (p+1)-product sum covers it.
    mats = np.array(a_sum_that_rounds_up_again_and_again(100))[:, None, None]
    computed = _expand(mats, Orientation.LEFT, np.eye(1), 100)
    assert_recursion_lemma(
        computed,
        [fractions(m) for m in mats],
        fractions(np.eye(1)),
        1,
        True,
        lambda m: operator_norm(m, True),
        Fraction(1),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    states=st.integers(1, 8),
    degree=st.integers(0, 3),
    order=st.integers(1, 10),
    signed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_stencil_recursion_terms_within_the_primed_series(seed, states, degree, order, signed):
    # The tridiagonal column recursion of solve_bdp, whose entries sum at most
    # 3(p+1) products: the lemma with dim = 3, whatever the number of states.
    rng = np.random.default_rng(seed)
    family = random_family(rng, degree, (3, states), signed)
    family[:, 0, 0] = family[:, 2, -1] = 0.0  # family[j, k, i] = A_j[i, i - 1 + k]
    start = rng.standard_normal(states)
    computed = _Stencil(degree, states, order).expand(family, start).copy()
    dense = np.zeros((degree + 1, states, states))
    for k in range(3):
        for i in range(states):
            if 0 <= i - 1 + k < states:
                dense[:, i, i - 1 + k] = family[:, k, i]
    assert_recursion_lemma(
        computed,
        [fractions(m) for m in dense],
        fractions(start),
        3,
        True,
        lambda v: abs(v).sum(),
        abs(fractions(start)).sum(),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    degree=st.integers(0, 3),
    left=st.booleans(),
    order=st.integers(1, 20),
    signed=st.booleans(),
    log_h=st.floats(-2.0, 0.0),
)
@settings(max_examples=40, deadline=None)
def test_horner_within_gamma_2n_of_the_exact_sum_of_its_terms(
    seed, dim, degree, left, order, signed, log_h
):
    # Horner's rule on the computed terms: ||computed - sum T~_n h^n|| <=
    # gamma_2N sum ||T~_n|| h^n, with the exact sum of the same float terms.
    rng = np.random.default_rng(seed)
    orientation = Orientation.LEFT if left else Orientation.RIGHT
    terms = _expand(random_family(rng, degree, (dim, dim), signed), orientation, np.eye(dim), order)
    h = 10.0**log_h
    powers = [Fraction(h) ** n for n in range(order + 1)]
    exact = sum(fractions(term) * power for term, power in zip(terms, powers))
    gap = fractions(_horner(terms, h)) - exact
    size = sum(operator_norm(fractions(term), left) * power for term, power in zip(terms, powers))
    assert operator_norm(gap, left) <= Fraction(_gamma(2 * order)) * size


@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 3),
    order=st.integers(1, 30),
    log_h=st.floats(-3.0, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_partial_sum_shrunk_by_its_rounding_is_below_the_exact_one(seed, degree, order, log_h):
    # _local_bound's partial sum: the float sum_(n<=N) r_n h^n of the scalar
    # series of the norms a, shrunk by _shrunk_partial_sum, is at most the exact
    # sum from the same float a and h, so the bound subtracts no more than it may.
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.0, 1.0, (1, degree + 1)) * 10.0 ** rng.uniform(-2, 1, (1, degree + 1))
    h = np.array([10.0**log_h])
    partial = _shrunk_partial_sum(norms, order, h)
    r = exact_scalar_series([Fraction(x) for x in norms[0].tolist()], Fraction(1), order)
    exact = sum(r_n * Fraction(h[0]) ** n for n, r_n in enumerate(r))
    assert Fraction(partial[0]) <= exact


def sums_that_round_down(rng, shape, axis: int) -> np.ndarray:
    """Entries of mixed signs whose absolute sums along axis all round down.

    Each line along axis holds one entry x and others that add up to under
    half an ulp of |x|, so the float sum of the absolute values is |x|,
    below the exact sum, whatever the order of the additions.
    """
    *lead, m = np.moveaxis(np.empty(shape), axis, -1).shape
    big = rng.standard_normal(lead) * 10.0 ** rng.uniform(-3, 3, lead)
    out = np.spacing(np.abs(big))[..., None] * rng.uniform(0.05, 0.45, (*lead, m)) / m
    out *= rng.choice([-1.0, 1.0], out.shape)
    np.put_along_axis(out, rng.integers(0, m, lead)[..., None], big[..., None], axis=-1)
    return np.moveaxis(out, -1, axis)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    degree=st.integers(0, 3),
    states=st.integers(1, 12),
    rounds_down=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_norm_bounds_cover_the_exact_norms_of_their_floats(seed, dim, degree, states, rounds_down):
    # The norm helpers round their float sums up: each bound is at least the
    # exact max absolute column (LEFT) or row (RIGHT, and the 3 diagonals of
    # a tridiagonal row) sum of the same floats, also where every sum rounds down.
    rng = np.random.default_rng(seed)

    def draw(shape, axis):
        if rounds_down:
            return sums_that_round_down(rng, shape, axis)
        return random_family(rng, degree, shape[1:], True)

    for left in (True, False):
        mats = draw((degree + 1, dim, dim), -2 if left else -1)
        orientation = Orientation.LEFT if left else Orientation.RIGHT
        for bound, m in zip(_norm_bounds(mats, orientation).tolist(), mats):
            assert Fraction(bound) >= operator_norm(fractions(m), left)
    diagonals = draw((degree + 1, 3, states), -2)
    for bound, m in zip(_diagonal_norm_bounds(diagonals).tolist(), diagonals):
        assert Fraction(bound) >= abs(fractions(m)).sum(axis=0).max()
