import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from evoseries import bdp, engine
from evoseries.bdp import (
    BirthDeathSpec,
    Boundary,
    _dense,
    _diagonals,
    _row_sums,
    _stencil_expand,
    _transposed,
    build_generator,
    solve_bdp,
    stochasticity_report,
)
from evoseries.engine import (
    MatrixPolyCoefficients,
    Orientation,
    _expand,
    _gamma,
    _local_bound,
    _norm_bounds,
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
    mats = list(coeffs.matrices)
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


def test_spec_validation():
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(0.0, 0.5), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, -0.1), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=2)
    BirthDeathSpec(lam=(1.0, 0.0), mu=(1.0, 0.0), states=3)  # autonomous is fine


@pytest.mark.parametrize("field", ["lam", "mu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_rejects_non_finite_rates(field, bad):
    rates = {"lam": (1.0, 0.5), "mu": (1.0, 0.5)}
    rates[field] = (1.0, bad)
    with pytest.raises(ValueError, match=f"{field} rates must be finite"):
        BirthDeathSpec(states=10, **rates)


def test_generator_structure():
    spec = BirthDeathSpec(lam=(2.0, 0.5), mu=(3.0, 0.5), states=5)
    gen = build_generator(2.0, 3.0, spec)
    assert gen[0, 0] == -2.0 and gen[0, 1] == 2.0
    assert gen[1, 0] == 3.0 and gen[1, 1] == -5.0 and gen[1, 2] == 2.0
    assert gen[4, 3] == 3.0 and gen[4, 4] == -3.0
    assert np.allclose(gen.sum(axis=1), 0.0)  # proper generator


def test_generator_raw_truncation_leaks():
    spec = BirthDeathSpec(
        lam=(2.0, 0.5), mu=(3.0, 0.5), states=5, boundary=Boundary.REFLECT_NONE
    )
    gen = build_generator(2.0, 3.0, spec)
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
    gen = build_generator(lam, mu, spec)
    poly = ShiftPolynomial({(0, 1): 2, (1, 1): -3})
    assert np.array_equal(gen, realize(poly, size))
    # the mass-conserving variant differs only in the last diagonal entry
    spec_abs = BirthDeathSpec(lam=(lam, 0.0), mu=(mu, 0.0), states=size)
    gen_abs = build_generator(lam, mu, spec_abs)
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
    traj, coeffs = solve_bdp(spec, 60.0, 1, 5, initial=np.zeros(10))
    assert math.isinf(solve_stepped(coeffs, 60.0, 60.0, 5)[-1].tail_bound)
    assert not traj.distributions.any() and not traj.tail_bounds.any()


def test_leaky_chain_bound_not_looser_than_propagator_bound():
    # On a 3-state raw chain every local propagator leaks mass, so ||R_loc||
    # is well below 1; carrying the error with factor 1 would make this bound
    # 45% looser than the full-propagator one.
    spec = BirthDeathSpec(
        lam=(3.0, 0.0), mu=(0.5, 0.0), states=3, boundary=Boundary.REFLECT_NONE
    )
    traj, coeffs = solve_bdp(spec, 2.0, 4, 20)
    full = np.array([s.tail_bound for s in solve_stepped(coeffs, 2.0, 0.5, 20)])
    assert np.all(traj.tail_bounds <= full * (1 + 1e-12))


def test_leaky_chain_bound_can_exceed_propagator_bound_and_still_holds():
    # The initial row sits on the state of largest row sum, so ||p||_1 is
    # ||R_prev|| and nothing offsets the backward row-sum bound at t_next in
    # the leak factor: the final bound is 5.3321e-3 against 5.3273e-3 from
    # full propagators.  It still covers the gap to the ODE reference.
    spec = BirthDeathSpec(
        lam=(1.0, 0.0), mu=(1.0, 1.0), states=3, boundary=Boundary.REFLECT_NONE
    )
    traj, coeffs = solve_bdp(spec, 1.0, 2, 11)
    full = [s.tail_bound for s in solve_stepped(coeffs, 1.0, 0.5, 11)]
    assert traj.tail_bounds[-1] > full[-1]
    a0, a1 = coeffs.matrices
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


def test_leak_factor_uses_row_sums_of_the_forward_propagator():
    # lam_1 mu_0 != lam_0 mu_1, so A_0 and A_1 do not commute on the column of
    # ones: the forward recursion run on it misses rows 1 and 2 by ~1e-3.
    spec = BirthDeathSpec(
        lam=(3.0, 0.0), mu=(0.5, 2.0), states=3, boundary=Boundary.REFLECT_NONE
    )
    _, coeffs = solve_bdp(spec, 1.0, 1, 10)
    t_prev, t_next = 0.3, 0.5
    h = t_next - t_prev
    local = solve_stepped(recenter(coeffs, t_prev), h, h, 40)[-1]
    exact = local.value.sum(axis=1)
    unshifted = _norm_bounds(coeffs.matrices, coeffs.orientation).tolist()
    sums, norms = _row_sums(
        _shift(_diagonals(spec.lam, spec.mu, spec), [t_next])[:, 0], h, 20
    )
    [error] = _local_bound(norms[None], unshifted, [t_next], coeffs.dim, 20, [h])
    assert 0.0 < error < 1e-10
    assert np.all(np.abs(sums - exact) <= error + local.tail_bound)
    assert min(1.0, sums.max() + error) >= exact.max() - local.tail_bound


def test_autonomous_limit_matches_uniformization():
    spec = BirthDeathSpec(lam=(1.5, 0.0), mu=(1.0, 0.0), states=40)
    p0 = np.zeros(40)
    p0[:4] = 0.25
    traj, _ = solve_bdp(spec, 1.5, 6, 30, initial=p0)
    gen = build_generator(1.5, 1.0, spec)
    for t, dist, bound in zip(traj.times, traj.distributions, traj.tail_bounds):
        reference = uniformized(gen, p0, t)
        assert np.abs(reference - p0 @ expm(t * gen)).sum() < 1e-13  # the two oracles agree
        assert np.abs(dist - reference).sum() <= bound + 1e-13


rate = st.floats(0.1, 3.0)
linear_rate = st.one_of(st.just(0.0), st.floats(0.0, 1.5))


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
    traj, coeffs = solve_bdp(spec, t_final, steps, order, initial=p0)
    path = solve_stepped(coeffs, t_final, t_final / steps, order)
    assert np.array_equal(traj.times, [s.t for s in path])  # one shared grid
    full = mass * np.array([s.tail_bound for s in path])
    slack = 1e-12 * mass
    propagated = np.vstack([p0 @ s.value for s in path])
    gap = np.abs(traj.distributions - propagated).sum(axis=1)
    assert np.all(gap <= traj.tail_bounds + full + slack)
    a0 = build_generator(lam[0], mu[0], spec)
    a1 = build_generator(lam[1], mu[1], spec)
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
        family = MatrixPolyCoefficients(coeffs.matrices, orientation)
        assert np.array_equal(
            compute_coefficients(family, order).terms, recursion_reference(family, order)
        )


def test_initial_distribution_and_coefficient():
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=20)
    traj, coeffs = solve_bdp(spec, 0.5, 5, 20)
    assert traj.distributions[0][0] == 1.0 and traj.distributions[0][1:].max() == 0.0
    a0 = build_generator(1.0, 1.0, spec)
    a1 = build_generator(0.5, 0.5, spec)
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
    oracle = p0 @ expm(0.5 * build_generator(1.0, 1.0, spec))
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
        type(traj)(traj.times, doctored, traj.leakage, traj.tail_bounds)
    )
    assert bad.any_negative
    assert bad.worst_entry == -1e-6


@pytest.mark.parametrize("boundary", list(Boundary))
def test_solve_bdp_makes_one_bound_call(monkeypatch, boundary):
    rows = []

    def counting(norms, *args):
        rows.append(len(norms))
        return bound(norms, *args)

    bound = bdp._local_bound
    monkeypatch.setattr(bdp, "_local_bound", counting)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=12, boundary=boundary)
    solve_bdp(spec, 1.0, 7, 20)
    # Every step's forward bound; a leaky chain adds the row sums' error of steps 1..6.
    assert rows == [13 if boundary is Boundary.REFLECT_NONE else 7]


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
    family = _shift(_diagonals(spec.lam, spec.mu, spec), [t0])[:, 0]
    generators = (build_generator(lam[0], mu[0], spec), build_generator(lam[1], mu[1], spec))
    dense = recenter(MatrixPolyCoefficients(generators, Orientation.RIGHT), t0).matrices
    assert np.array_equal(_dense(family), dense)  # one shift, entry for entry
    start = np.random.default_rng(seed).standard_normal(states)
    # Each computed expansion is within r'_n - r_n times the start's norm of
    # the exact terms, r' widened for the dense path's d-term sums; both
    # directions take norms from the max row sums.
    norms = _norm_bounds(dense, Orientation.RIGHT)
    widened = _up(norms * (1.0 + _gamma(states * len(dense) + 2)), 2)
    r = np.array(scalar_coefficients(norms.tolist(), order).coeffs)
    r_widened = np.array(scalar_coefficients(widened.tolist(), order).coeffs)
    allowance = 2.0 * (r_widened - r)
    rows = _stencil_expand(_transposed(family), start, order)
    gap = np.abs(rows - _expand(dense, Orientation.RIGHT, start, order)).sum(axis=1)
    assert np.all(gap <= allowance * np.abs(start).sum())
    columns = _stencil_expand(family, start, order)
    gap = np.abs(columns - _expand(dense, Orientation.LEFT, start, order)).max(axis=1)
    assert np.all(gap <= allowance * np.abs(start).max())


@pytest.mark.parametrize("boundary", list(Boundary))
def test_solve_bdp_steps_touch_no_dense_family(monkeypatch, boundary):
    def refuse(*args, **kwargs):
        raise AssertionError("a step of solve_bdp used a dense family")

    for module in (bdp, engine):
        for name in ("recenter", "_expand", "_norm_bounds"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    spec = BirthDeathSpec(lam=(1.0, 0.5), mu=(2.0, 0.5), states=12, boundary=boundary)
    traj, coeffs = solve_bdp(spec, 1.0, 7, 20)
    assert np.isfinite(traj.tail_bounds).all() and traj.tail_bounds[-1] > 0.0
    # The returned family is build_generator's, read-only.
    assert np.array_equal(
        coeffs.matrices, [build_generator(1.0, 2.0, spec), build_generator(0.5, 0.5, spec)]
    )
    assert not coeffs.matrices.flags.writeable
