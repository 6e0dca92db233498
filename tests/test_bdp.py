import numpy as np
import pytest
from scipy.linalg import expm

from evoseries.bdp import (
    BirthDeathSpec,
    Boundary,
    build_generator,
    solve_bdp,
    stochasticity_report,
)
from evoseries.engine import Orientation, compute_coefficients
from evoseries.shift_algebra import ShiftPolynomial, realize


def test_spec_validation():
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(0.0, 0.5), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, -0.1), mu=(1.0, 0.5), states=10)
    with pytest.raises(ValueError):
        BirthDeathSpec(lam=(1.0, 0.5), mu=(1.0, 0.5), states=2)
    BirthDeathSpec(lam=(1.0, 0.0), mu=(1.0, 0.0), states=3)  # autonomous is fine


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
