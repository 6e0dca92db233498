import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from evoseries import bdp, engine
from evoseries.bdp import (
    BirthDeathSpec,
    Boundary,
    DistributionTrajectory,
    _Stencil,
    _dense,
    _diagonal_norm_bounds,
    _diagonals,
    _transposed,
    generator_family,
    solve_bdp,
    stochasticity_report,
)
from evoseries.combinatorics import TermBudgetError
from evoseries.engine import (
    MAX_DOUBLES,
    MatrixPolyCoefficients,
    Orientation,
    _expand,
    _gamma,
    _grid,
    _horner,
    _local_bound,
    _norm_bounds,
    _powers,
    _shift,
    _up,
    compute_coefficients,
    recenter,
    solve_stepped,
)
from evoseries.scalar import scalar_coefficients
from evoseries.shift_algebra import ShiftPolynomial, realize


def uniformized(gen: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """p0 exp(t A) by Jensen's uniformization, without scipy.

    With q >= every exit rate, P = I + A / q is substochastic and
    p0 exp(t A) = sum_k e^(-q t) (q t)^k / k! p0 P^k, all terms nonnegative
    for a nonnegative p0.  The sum stops 12 standard deviations plus 40 terms
    past the Poisson mean, where the dropped weight is far below 1e-16.
    """
    q = max(float(-gen.diagonal().min()), 1e-300)
    step = np.eye(len(gen)) + gen / q
    qt = q * t
    weight = math.exp(-qt)
    term = p0.copy()
    total = weight * term
    for k in range(1, int(qt + 12 * math.sqrt(qt)) + 40):
        term = term @ step
        weight *= qt / k
        total += weight * term
    return total


def recursion_reference(coeffs: MatrixPolyCoefficients, order: int) -> np.ndarray:
    """The fundamental recursion as one plain loop, matched bit for bit by compute_coefficients."""
    dim = coeffs.dim
    left = coeffs.orientation is Orientation.LEFT
    mats = list(coeffs.stack)
    stack = np.zeros((order + 1, dim, dim))
    terms = list(stack)
    terms[0] += np.eye(dim)
    for n in range(1, order + 1):
        acc = terms[n]
        for j in range(min(coeffs.degree, n - 1) + 1):
            if left:
                acc += mats[j] @ terms[n - 1 - j]
            else:
                acc += terms[n - 1 - j] @ mats[j]
        acc /= n
    return stack


def reference_stencil(diagonals: np.ndarray, start: np.ndarray, order: int) -> np.ndarray:
    """The stencil recursion of one column, over sliding_window_view windows.

    diagonals[j, k, i] = A_j[i, i - 1 + k] and start[i] is entry i of the column.
    """
    p = len(diagonals) - 1
    stack = np.zeros((order + 1 + p, len(start) + 2))
    stack[p, 1:-1] = start
    windows = sliding_window_view(stack, 3, axis=-1)
    reversed_family = diagonals[::-1]
    for n in range(1, order + 1):
        term = stack[p + n, 1:-1]
        np.einsum("jik,jki->i", windows[n - 1 : n + p], reversed_family, out=term)
        term /= n
    return stack[p:, 1:-1]


def reference_solve(spec, t_final, steps, order, initial=None) -> DistributionTrajectory:
    """solve_bdp as a per-step row loop on the family shifted to every step's start at once."""
    family = _diagonals(spec.lam, spec.mu, spec)
    if initial is None:
        p = np.zeros(spec.states)
        p[0] = 1.0
    else:
        p = np.asarray(initial, dtype=float)
    unshifted = _diagonal_norm_bounds(family).tolist()
    times, hs = _grid(t_final, t_final / steps)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(times[:-1], len(family) - 1)
        shifted = _shift(family, powers)
        forward = _transposed(shifted)
        masses = []
        dists = [p]
        for k, (t_prev, h) in enumerate(zip(times, hs)):
            masses.append(_up(float(np.abs(p).sum()), spec.states))
            terms = reference_stencil(forward[:, k], p, order)
            if not np.isfinite(terms).all():
                raise ValueError(f"the series overflows on the step from t = {t_prev}")
            p = _horner(terms, h)
            dists.append(p)
        dists = np.vstack(dists)
        norms = _diagonal_norm_bounds(shifted)
    local_bounds = _local_bound(norms, unshifted, powers, 3, order, hs)
    bounds = [0.0]
    for mass, local_bound in zip(masses, local_bounds):
        bounds.append(_up(bounds[-1] + mass * local_bound, 2) if mass else bounds[-1])
    return DistributionTrajectory(np.array(times), dists, np.array(bounds))


def test_spec_validation():
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(0.0, 0.5), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, -0.1), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=2)
    BirthDeathSpec(lam=(1.0, 0.0), mu=(1.0, 0.0), states=3)  # autonomous is fine
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=5.5)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=np.int64(5))
    assert type(spec.states) is int and spec.states == 5


@pytest.mark.parametrize("field", ["lam", "mu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_rejects_non_finite_rates(field, bad):
    rates = {"lam": (1.0, 0.5), "mu": (1.0, 0.5)}
    rates[field] = (1.0, bad)
    with pytest.raises(ValueError, match=f"{field} rates must be finite"):
        BirthDeathSpec(states=10, **rates)


def test_boundary_given_as_a_string_is_the_enum_member():
    # The generator tests "is Boundary.ABSORB_LAST", so a name must become the
    # member: a spec that kept the string "absorb" would build the leaky raw chain.
    spec = BirthDeathSpec(lam=(2.0, 0.5), mu=(1.0, 0.5), states=5, boundary="absorb")
    assert spec.boundary is Boundary.ABSORB_LAST
    assert generator_family(spec).stack[0][-1, -1] == -1.0
    traj, _ = solve_bdp(spec, 1.0, 4, 30)
    assert traj.leakage[-1] < 1e-12
    assert BirthDeathSpec(lam=(2.0, 0.5), mu=(1.0, 0.5), states=5, boundary="raw").boundary is (
        Boundary.REFLECT_NONE
    )
    with pytest.raises(ValueError, match="sideways"):
        BirthDeathSpec(lam=(2.0, 0.5), mu=(1.0, 0.5), states=5, boundary="sideways")


def test_generator_structure():
    spec = BirthDeathSpec(lam=(2.0, 0.5), mu=(3.0, 0.5), states=5)
    gen = generator_family(spec).stack[0]
    assert gen[0, 0] == -2.0 and gen[0, 1] == 2.0
    assert gen[1, 0] == 3.0 and gen[1, 1] == -5.0 and gen[1, 2] == 2.0
    assert gen[4, 3] == 3.0 and gen[4, 4] == -3.0
    assert np.allclose(gen.sum(axis=1), 0.0)  # proper generator


def test_generator_raw_truncation_leaks():
    spec = BirthDeathSpec(
        lam=(2.0, 0.5), mu=(3.0, 0.5), states=5, boundary=Boundary.REFLECT_NONE
    )
    gen = generator_family(spec).stack[0]
    assert gen[4, 4] == -5.0
    sums = gen.sum(axis=1)
    assert np.allclose(sums[:-1], 0.0) and sums[-1] == -2.0


def test_generator_matches_shift_algebra_realization():
    # raw truncation is exactly lam U - mu S U on the finite window
    lam, mu = 2.0, 3.0
    size = 12
    spec = BirthDeathSpec(
        lam=(lam, 0.0), mu=(mu, 0.0), states=size, boundary=Boundary.REFLECT_NONE
    )
    gen = generator_family(spec).stack[0]
    poly = ShiftPolynomial({(0, 1): 2, (1, 1): -3})
    assert np.array_equal(gen, realize(poly, size))
    # the mass-conserving variant differs only in the last diagonal entry
    spec_abs = BirthDeathSpec(lam=(lam, 0.0), mu=(mu, 0.0), states=size)
    gen_abs = generator_family(spec_abs).stack[0]
    diff = gen_abs - gen
    assert diff[size - 1, size - 1] == lam
    assert np.count_nonzero(diff) == 1


def test_solve_inputs_checked():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=5)
    with pytest.raises(ValueError):
        solve_bdp(spec, 0.0, 5, 10)
    with pytest.raises(ValueError):
        solve_bdp(spec, 1.0, 0, 10)
    with pytest.raises(ValueError):
        solve_bdp(spec, 1.0, 5, 10, initial=np.ones(4))
    # 2.5 steps would run a 3-step grid, not steps + 1 points.
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        solve_bdp(spec, 1.0, 2.5, 10)
    traj, _ = solve_bdp(spec, 1.0, np.int64(2), 10)
    assert traj.times.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("order", [0, -1])
def test_solve_refuses_an_order_below_one_before_any_work(monkeypatch, order):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_bdp started a step")

    monkeypatch.setattr(engine, "_shift", refuse)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=5)
    with pytest.raises(ValueError) as birth_death:
        solve_bdp(spec, 1.0, 5, order)
    with pytest.raises(ValueError) as stepped:
        solve_stepped(generator_family(spec), 1.0, 0.2, order)
    assert str(birth_death.value) == str(stepped.value) == f"series order must be >= 1, got {order}"


def test_solve_refuses_rows_and_stencil_over_the_cap_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_bdp allocated")

    monkeypatch.setattr(bdp, "_diagonals", refuse)
    monkeypatch.setattr(bdp, "_Stencil", refuse)
    n = 10**9
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=n)
    # engine._plan's count: (50 + 1) n doubles of rows; the stencil's
    # (30 + 2) (n + 2), its views and finiteness check, 31 (48 + n / 8), its
    # family, the family and three n-long temporaries, 15 n; the larger of a
    # block of one step, 3 * 6 n, and a bound chunk of all 50 steps,
    # (2 * 50 + 24) * 31; and 32 * 50 + 1024 of bookkeeping.
    doubles = (
        51 * n + 32 * (n + 2) + 31 * (48 + n // 8) + 15 * n + max(18 * n, 124 * 31) + 32 * 50 + 1024
    )
    with pytest.raises(TermBudgetError) as refused:
        solve_bdp(spec, 1.0, 50, 30)
    assert (refused.value.count, refused.value.cap) == (doubles, MAX_DOUBLES)
    assert str(refused.value) == (
        f"1000000000 states over 50 steps needs {doubles} doubles,"
        f" over the cap of {MAX_DOUBLES}"
    )


def assert_counted_doubles_cover_the_peak(monkeypatch, solve):
    # The count that engine._plan refuses is at least the solve's real peak,
    # less 10%.  solve_stepped's term-stack check is skipped to reach it.
    with monkeypatch.context() as patched:
        patched.setattr(engine, "MAX_DOUBLES", 0)
        patched.setattr(engine, "_refuse_terms", lambda order, doubles: None)
        with pytest.raises(TermBudgetError) as refused:
            solve()
    counted = refused.value.count
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * counted, (peak / 8, counted)


@pytest.mark.parametrize(
    ("states", "steps", "order"),
    [(10**5, 1, 30), (10**5, 4, 30), (4 * 10**5, 1, 30), (3, 2000, 30), (5, 200, 1000)],
)
def test_counted_doubles_cover_the_solve_peak(monkeypatch, states, steps, order):
    # The step-heavy grids peak in the local bound's stacked series, about
    # 2 (order + 1) doubles a step of one _local_bound call.
    spec = BirthDeathSpec(
        lam=(1.0, 0.5), mu=(1.0, 0.5), states=states, boundary=Boundary.REFLECT_NONE
    )
    assert_counted_doubles_cover_the_peak(monkeypatch, lambda: solve_bdp(spec, 1.0, steps, order))


def test_counted_doubles_cover_the_stepped_solve_peak(monkeypatch):
    mats = 0.1 * np.random.default_rng(3).standard_normal((2, 2, 2))
    coeffs = MatrixPolyCoefficients(mats)

    def solve():
        return solve_stepped(coeffs, 5.0, 0.01, 300)

    assert len(solve().times) == 501
    assert_counted_doubles_cover_the_peak(monkeypatch, solve)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_initial(bad):
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=5)
    initial = np.array([0.5, bad, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        solve_bdp(spec, 1.0, 5, 10, initial=initial)


def test_bound_scales_with_initial_mass():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=30)
    unit, _ = solve_bdp(spec, 1.0, 4, 12)
    p0 = np.zeros(30)
    p0[0] = 2.0
    double, _ = solve_bdp(spec, 1.0, 4, 12, initial=p0)
    assert np.array_equal(double.distributions, 2.0 * unit.distributions)
    assert unit.tail_bounds[-1] > 0.0
    assert np.array_equal(double.tail_bounds, 2.0 * unit.tail_bounds)


def test_zero_initial_row_has_zero_bound():
    # One step of length 60: exp of the majorant's integral overflows, so the
    # local bound is inf, but a zero row stays exactly zero.
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=10)
    traj, _ = solve_bdp(spec, 60.0, 1, 5, initial=np.zeros(10))
    assert math.isinf(solve_stepped(generator_family(spec), 60.0, 60.0, 5).tail_bounds[-1])
    assert not traj.distributions.any() and not traj.tail_bounds.any()


rate = st.floats(0.1, 3.0)
linear_rate = st.one_of(st.just(0.0), st.floats(0.0, 1.5))


@given(
    lam=st.tuples(rate, linear_rate),
    mu=st.tuples(rate, linear_rate),
    states=st.integers(3, 6),
    t_final=st.floats(0.2, 3.0),
    steps=st.integers(1, 11),
    order=st.integers(4, 20),
)
@settings(max_examples=60, deadline=None)
def test_tiny_leaky_chain_bound_covers_an_independent_reference(
    lam, mu, states, t_final, steps, order
):
    # Every local propagator of a 3-6 state raw chain leaks mass, so ||R_k||
    # is below 1 and carrying earlier error unscaled loosens the bound against
    # one composed from full propagators.  It must still bound the distance to
    # the exact distribution at every grid time.  DOP853 itself errs by up to
    # a few 1e-12 here, hence the 1e-10 slack; orders up to 20 keep most
    # bounds well above it.
    spec = BirthDeathSpec(lam=lam, mu=mu, states=states, boundary=Boundary.REFLECT_NONE)
    traj, _ = solve_bdp(spec, t_final, steps, order)
    a0, a1 = generator_family(spec).stack
    p0 = traj.distributions[0]
    if not a1.any():
        reference = np.vstack([p0 @ expm(t * a0) for t in traj.times])
    else:
        sol = solve_ivp(
            lambda t, p: p @ a0 + t * (p @ a1), (0.0, t_final), p0,
            t_eval=traj.times, method="DOP853", rtol=1e-13, atol=1e-16,
        )
        reference = sol.y.T
    gap = np.abs(traj.distributions - reference).sum(axis=1)
    assert np.all(gap <= traj.tail_bounds + 1e-10)


def test_leaky_chain_bound_can_exceed_propagator_bound_and_still_holds():
    # Full propagators scale the carried error by ||R~_k||, below 1 on this
    # leaky chain, while the row solve carries it unscaled: the final bound
    # is 5.3321e-3 against 5.3273e-3 from full propagators.  It still covers
    # the gap to the ODE reference.
    spec = BirthDeathSpec(
        lam=(1.0, 0.0), mu=(1.0, 1.0), states=3, boundary=Boundary.REFLECT_NONE
    )
    traj, _ = solve_bdp(spec, 1.0, 2, 11)
    coeffs = generator_family(spec)
    full = solve_stepped(coeffs, 1.0, 0.5, 11).tail_bounds
    assert traj.tail_bounds[-1] > full[-1]
    a0, a1 = coeffs.stack
    sol = solve_ivp(
        lambda t, p: p @ a0 + t * (p @ a1), (0.0, 1.0), [1.0, 0.0, 0.0],
        t_eval=traj.times, method="DOP853", rtol=1e-13, atol=1e-16,
    )
    gap = np.abs(traj.distributions - sol.y.T).sum(axis=1)
    assert np.all(gap <= traj.tail_bounds + 1e-10)


def test_both_solvers_refuse_an_overflowing_step_with_one_message():
    with pytest.raises(ValueError) as stepped:
        solve_stepped(MatrixPolyCoefficients((np.full((2, 2), 1e200),)), 1.0, 0.5, 5)
    spec = BirthDeathSpec(lam=(1e300, 0.5), mu=(1.0, 0.5), states=5)
    with pytest.raises(ValueError) as birth_death:
        solve_bdp(spec, 1.0, 2, 10)
    message = "the series overflows on the step from t = 0.0"
    assert str(stepped.value) == str(birth_death.value) == message


def test_autonomous_limit_matches_uniformization():
    spec = BirthDeathSpec(lam=(1.5, 0.0), mu=(1.0, 0.0), states=40)
    p0 = np.zeros(40)
    p0[:4] = 0.25
    traj, _ = solve_bdp(spec, 1.5, 6, 30, initial=p0)
    gen = generator_family(spec).stack[0]
    for t, dist, bound in zip(traj.times, traj.distributions, traj.tail_bounds):
        reference = uniformized(gen, p0, t)
        assert np.abs(reference - p0 @ expm(t * gen)).sum() < 1e-13  # the two oracles agree
        assert np.abs(dist - reference).sum() <= bound + 1e-13


@given(
    lam=st.tuples(rate, linear_rate),
    mu=st.tuples(rate, linear_rate),
    boundary=st.sampled_from(Boundary),
    states=st.integers(3, 40),
    t_final=st.floats(0.1, 2.0),
    steps=st.integers(1, 6),
    order=st.integers(10, 30),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_row_solve_within_bound_of_propagator_and_references(
    lam, mu, boundary, states, t_final, steps, order, data
):
    spec = BirthDeathSpec(lam=lam, mu=mu, states=states, boundary=boundary)
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=states, max_size=states))
    p0 = np.array(weights)
    p0[data.draw(st.integers(0, states - 1))] += data.draw(st.floats(1e-3, 5.0))
    mass = p0.sum()
    traj, _ = solve_bdp(spec, t_final, steps, order, initial=p0)
    coeffs = generator_family(spec)
    path = solve_stepped(coeffs, t_final, t_final / steps, order)
    assert np.array_equal(traj.times, path.times)  # one shared grid
    full = mass * path.tail_bounds
    slack = 1e-12 * mass
    propagated = np.vstack([p0 @ value for value in path.values])
    gap = np.abs(traj.distributions - propagated).sum(axis=1)
    assert np.all(gap <= traj.tail_bounds + full + slack)
    a0, a1 = generator_family(spec).stack
    if not a1.any():
        reference = np.vstack([uniformized(a0, p0, t) for t in traj.times])
    else:
        sol = solve_ivp(
            lambda t, p: p @ a0 + t * (p @ a1), (0.0, t_final), p0,
            t_eval=traj.times, method="DOP853", rtol=1e-13, atol=1e-16,
        )
        reference = sol.y.T
    gap = np.abs(traj.distributions - reference).sum(axis=1)
    assert np.all(gap <= traj.tail_bounds + 1e-10 * mass)
    for orientation in Orientation:
        family = MatrixPolyCoefficients(coeffs.stack, orientation)
        assert np.array_equal(
            compute_coefficients(family, order).terms, recursion_reference(family, order)
        )


def test_initial_distribution_and_coefficient():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=20)
    traj, _ = solve_bdp(spec, 0.5, 5, 20)
    assert traj.distributions[0][0] == 1.0 and traj.distributions[0][1:].max() == 0.0
    coeffs = generator_family(spec)
    a0, a1 = coeffs.stack
    assert coeffs.orientation is Orientation.RIGHT
    series = compute_coefficients(coeffs, 20)
    assert np.array_equal(series.terms[2], (a0 @ a0 + a1) / 2)


def test_interior_run_conserves_mass():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=80)
    traj, _ = solve_bdp(spec, 0.5, 10, 30)
    report = stochasticity_report(traj)
    assert report.max_leakage < 1e-6
    assert not report.any_negative
    assert report.worst_entry > -1e-9
    # row sums stay within leakage plus the accumulated truncation bound
    for i in range(len(traj.times)):
        defect = abs(1.0 - traj.distributions[i].sum())
        assert defect <= traj.tail_bounds[i] + traj.leakage[i] + 1e-12


def test_autonomous_limit_matches_matrix_exponential():
    spec = BirthDeathSpec(lam=(1.0, 0.0), mu=(1.0, 0.0), states=80)
    traj, _ = solve_bdp(spec, 0.5, 10, 30)
    p0 = np.zeros(80)
    p0[0] = 1.0
    oracle = p0 @ expm(0.5 * generator_family(spec).stack[0])
    assert np.abs(traj.distributions[-1] - oracle).max() < 1e-8


def test_raw_truncation_leakage_grows():
    spec = BirthDeathSpec(
        lam=(2.0, 0.5), mu=(1.0, 0.5), states=5, boundary=Boundary.REFLECT_NONE
    )
    traj, _ = solve_bdp(spec, 1.0, 10, 30)
    assert np.all(np.diff(traj.leakage) > 0)
    assert traj.leakage[-1] > 1e-3


def test_state_refinement_changes_less_than_leakage():
    # doubling the window moves the retained head entries by less than the
    # smaller run's own mass defect
    kwargs = dict(lam=(2.0, 0.5), mu=(1.0, 0.5), boundary=Boundary.REFLECT_NONE)
    small = BirthDeathSpec(states=12, **kwargs)
    big = BirthDeathSpec(states=24, **kwargs)
    traj_small, _ = solve_bdp(small, 1.0, 10, 30)
    traj_big, _ = solve_bdp(big, 1.0, 10, 30)
    head = 6
    shift = np.abs(
        traj_small.distributions[-1][:head] - traj_big.distributions[-1][:head]
    ).max()
    assert traj_small.leakage[-1] > 0
    assert shift < traj_small.leakage[-1]


def test_stochasticity_report_flags_negatives():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=5)
    traj, _ = solve_bdp(spec, 0.2, 2, 10)
    clean = stochasticity_report(traj)
    assert not clean.any_negative
    doctored = traj.distributions.copy()
    doctored[-1, 2] = -1e-6
    bad = stochasticity_report(
        type(traj)(traj.times, doctored, traj.tail_bounds)
    )
    assert bad.any_negative
    assert bad.worst_entry == -1e-6


@pytest.mark.parametrize("boundary", list(Boundary))
def test_solve_bdp_makes_one_bound_call(monkeypatch, boundary):
    rows = []

    def counting(norms, *args):
        rows.append(len(norms))
        return bound(norms, *args)

    bound = engine._local_bound
    monkeypatch.setattr(engine, "_local_bound", counting)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=12, boundary=boundary)
    solve_bdp(spec, 1.0, 7, 20)
    # One row of norms a step, under either boundary.
    assert rows == [7]


def test_each_solver_steps_through_the_one_driver_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1].shape)  # the family; args[0] is the plan
        return step_grid(*args)

    step_grid = engine._step_grid
    for module in (engine, bdp):
        monkeypatch.setattr(module, "_step_grid", counting)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=12)
    solve_bdp(spec, 1.0, 7, 20)
    assert calls == [(2, 3, 12)]
    solve_stepped(generator_family(spec), 1.0, 0.125, 20)
    assert calls == [(2, 3, 12), (2, 12, 12)]


def stencil_expand(diagonals: np.ndarray, start: np.ndarray, order: int) -> np.ndarray:
    """T_0 = start and n T_n = sum_j A_j T_{n-1-j} for one column vector, by one _Stencil.

    diagonals[j, k, i] = A_j[i, i - 1 + k].  A row vector's series,
    n T_n = sum_j T_{n-1-j} A_j, is this one run on _transposed(diagonals).
    """
    return _Stencil(len(diagonals) - 1, len(start), order).expand(diagonals, start)


@given(
    lam=st.tuples(rate, linear_rate),
    mu=st.tuples(rate, linear_rate),
    boundary=st.sampled_from(Boundary),
    states=st.integers(3, 60),
    t0=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    order=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stencil_expansion_matches_the_dense_recursion(
    lam, mu, boundary, states, t0, order, seed
):
    spec = BirthDeathSpec(lam=lam, mu=mu, states=states, boundary=boundary)
    family = _shift(_diagonals(spec.lam, spec.mu, spec), _powers([t0], 1))[:, 0]
    dense = recenter(generator_family(spec), t0).stack
    assert np.array_equal(_dense(family), dense)  # one shift, entry for entry
    start = np.random.default_rng(seed).standard_normal(states)
    # Each computed expansion is within r'_n - r_n times the start's norm of
    # the exact terms, r' widened for the dense path's d-term sums; both
    # directions take norms from the max row sums.
    norms = _norm_bounds(dense, Orientation.RIGHT)
    widened = _up(norms * (1.0 + _gamma(states * len(dense) + 2)), 2)
    r = scalar_coefficients(norms.tolist(), order)
    r_widened = scalar_coefficients(widened.tolist(), order)
    allowance = 2.0 * (r_widened - r)
    rows = stencil_expand(_transposed(family), start, order)
    gap = np.abs(rows - _expand(dense, Orientation.RIGHT, start, order)).sum(axis=1)
    assert np.all(gap <= allowance * np.abs(start).sum())
    columns = stencil_expand(family, start, order)
    gap = np.abs(columns - _expand(dense, Orientation.LEFT, start, order)).max(axis=1)
    assert np.all(gap <= allowance * np.abs(start).max())


@pytest.mark.parametrize("boundary", list(Boundary))
def test_solve_bdp_steps_touch_no_dense_family(monkeypatch, boundary):
    def refuse(*args, **kwargs):
        raise AssertionError("a step of solve_bdp used a dense family")

    for module in (bdp, engine):
        for name in ("recenter", "_expand", "_norm_bounds", "_dense"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=12, boundary=boundary)
    traj, diagonals = solve_bdp(spec, 1.0, 7, 20)
    assert np.isfinite(traj.tail_bounds).all() and traj.tail_bounds[-1] > 0.0
    # The second value is the diagonals the solve steps on, read-only, as
    # are the trajectory's columns.
    assert np.array_equal(diagonals, _diagonals(spec.lam, spec.mu, spec))
    for column in (diagonals, *vars(traj).values()):
        with pytest.raises(ValueError):
            column[-1] = 5.0
    monkeypatch.undo()
    # generator_family is their dense form.
    assert np.array_equal(_dense(diagonals), generator_family(spec).stack)


@given(
    lam=st.tuples(rate, linear_rate),
    mu=st.tuples(rate, linear_rate),
    boundary=st.sampled_from(Boundary),
    states=st.integers(3, 120),
    t_final=st.floats(0.05, 3.0),
    steps=st.integers(1, 12),
    order=st.integers(1, 30),
    start=st.sampled_from(["first", "zero", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_solve_bdp_keeps_the_bits_of_the_row_loop(
    lam, mu, boundary, states, t_final, steps, order, start, seed
):
    spec = BirthDeathSpec(lam=lam, mu=mu, states=states, boundary=boundary)
    initial = {
        "first": None,
        "zero": np.zeros(states),
        "random": np.random.default_rng(seed).dirichlet(np.ones(states)),
    }[start]
    traj, _ = solve_bdp(spec, t_final, steps, order, initial=initial)
    reference = reference_solve(spec, t_final, steps, order, initial=initial)
    for field in ("times", "distributions", "leakage", "tail_bounds"):
        assert getattr(traj, field).tobytes() == getattr(reference, field).tobytes(), field


def test_a_tiny_row_on_huge_rates_is_refused_only_when_its_own_series_overflows():
    # With rates near 1e23 a unit row's series overflows on the first step,
    # while a row of mass 1e-300 stays finite; the next step overflows from
    # the grown row.  On one step of 1e-22 the row stays finite, bit for bit
    # the row loop's, and only its bound is lost.
    spec = BirthDeathSpec(
        lam=(1e23, 1.0), mu=(1.0, 1.0), states=6, boundary=Boundary.REFLECT_NONE
    )
    with pytest.raises(ValueError, match=r"step from t = 0\.0$"):
        solve_bdp(spec, 1.0, 3, 20)
    initial = np.zeros(6)
    initial[0] = 1e-300
    with pytest.raises(ValueError, match=r"step from t = 0\.333"):
        solve_bdp(spec, 1.0, 3, 20, initial=initial)
    traj, _ = solve_bdp(spec, 1e-22, 1, 20, initial=initial)
    reference = reference_solve(spec, 1e-22, 1, 20, initial=initial)
    assert np.isfinite(traj.distributions).all() and math.isinf(traj.tail_bounds[-1])
    assert traj.distributions.tobytes() == reference.distributions.tobytes()


def test_a_hundred_thousand_state_chain_needs_no_dense_memory():
    # The dense (2, n, n) family alone would take 149 GiB.
    spec = BirthDeathSpec(
        lam=(1.0, 0.5), mu=(1.0, 0.5), states=100_000, boundary=Boundary.REFLECT_NONE
    )
    tracemalloc.start()
    try:
        traj, _ = solve_bdp(spec, 1.0, 4, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(traj.tail_bounds).all() and traj.tail_bounds[-1] > 0.0
    assert peak < 300e6, f"peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize(("states", "steps", "origins"), [(250, 12, [12]), (3000, 8, [3, 3, 2])])
def test_solve_bdp_shifts_one_block_of_steps_at_a_time(
    monkeypatch, boundary, states, steps, origins
):
    # A 250-state block holds 43 steps, so a 12-step solve shifts once, to
    # every step's start; a 3000-state block holds 3.
    calls = []

    def counting(mats, powers):
        if mats.shape[1:] == (3, states):  # not the shift of the norms in _local_bound
            calls.append(len(powers))
        return shift(mats, powers)

    shift = engine._shift
    monkeypatch.setattr(engine, "_shift", counting)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=states, boundary=boundary)
    initial = np.random.default_rng(states).dirichlet(np.ones(states))
    traj, _ = solve_bdp(spec, 1.5, steps, 30, initial=initial)
    assert calls == origins
    reference = reference_solve(spec, 1.5, steps, 30, initial=initial)
    for field in ("times", "distributions", "leakage", "tail_bounds"):
        assert getattr(traj, field).tobytes() == getattr(reference, field).tobytes(), field


def test_a_long_grid_holds_the_shifted_family_one_block_at_a_time():
    # 201 grid times of a 10^4-state family shifted at once, and their norms'
    # temporary, took 232 MB, and a list of rows stacked at the end 36 MB; a
    # block of one step and rows written into one stack keep the peak near
    # the 16 MB of distributions the solve returns.
    spec = BirthDeathSpec(
        lam=(1.0, 0.5), mu=(1.0, 0.5), states=10_000, boundary=Boundary.REFLECT_NONE
    )
    tracemalloc.start()
    try:
        traj, _ = solve_bdp(spec, 2.0, 200, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(traj.tail_bounds).all() and traj.tail_bounds[-1] > 0.0
    assert peak < 30e6, f"peak {peak / 1e6:.0f} MB"
