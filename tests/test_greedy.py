import math

import numpy as np
import pytest

from fairsel import (
    ContractError,
    ExtensionEstimator,
    ExtensionEvaluator,
    FeasibilityError,
    FractionalPoint,
    ModularOracle,
    WorkerPool,
    faircg1_fractional,
    faircg2_fractional,
    solve_uopt,
)

from conftest import make_random_instance


def test_zero_floor_two_worker_saturates():
    pool = WorkerPool(n=2, k=2, fairness=np.zeros(2))
    oracle = ModularOracle([1.0, 2.0])
    for driver in (faircg1_fractional, faircg2_fractional):
        res = driver(pool, ExtensionEvaluator(oracle), step_count=10)
        assert res.y1.coords == pytest.approx([1.0, 1.0], abs=1e-9)


def test_singleton_polytope_returns_the_floor():
    r = np.array([0.5, 0.5, 1.0])
    pool = WorkerPool(n=3, k=2, fairness=r)
    oracle = ModularOracle([3.0, 1.0, 2.0])
    for driver in (faircg1_fractional, faircg2_fractional):
        res = driver(pool, ExtensionEvaluator(oracle), step_count=9)
        assert res.y1.coords == pytest.approx(r, abs=1e-9)
    # variant two never moves: every step's point is already final
    res2 = faircg2_fractional(pool, ExtensionEvaluator(oracle), step_count=9)
    assert all(s.extension_value == pytest.approx(res2.value, abs=1e-9) for s in res2.steps)


def test_variants_coincide_at_zero_floors():
    rng = np.random.default_rng(2)
    pool, oracle = make_random_instance(rng)
    pool = WorkerPool(n=pool.n, k=pool.k, fairness=np.zeros(pool.n))
    res1 = faircg1_fractional(pool, ExtensionEvaluator(oracle), step_count=30)
    res2 = faircg2_fractional(pool, ExtensionEvaluator(oracle), step_count=30)
    # identical trajectories, exact equality
    assert np.array_equal(res1.y1.coords, res2.y1.coords)


def test_step_records_and_monotone_trajectory():
    rng = np.random.default_rng(6)
    pool, oracle = make_random_instance(rng)
    res = faircg1_fractional(pool, ExtensionEvaluator(oracle), step_count=20)
    assert len(res.steps) == 20
    assert [s.tau for s in res.steps] == pytest.approx(
        [i / 20 for i in range(20)], abs=1e-12
    )
    values = [s.extension_value for s in res.steps] + [res.value]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(s.linear_gain >= -1e-12 for s in res.steps)
    assert res.estimator_mode == "exact"
    assert res.value == pytest.approx(ExtensionEvaluator(oracle).value(res.y1), abs=1e-12)


def test_default_step_count_is_n_squared():
    rng = np.random.default_rng(13)
    pool, oracle = make_random_instance(rng, n_range=(4, 5))
    res = faircg1_fractional(pool, ExtensionEvaluator(oracle))
    assert res.step_count == pool.n**2


def test_final_point_is_in_the_polytope():
    rng = np.random.default_rng(29)
    for _ in range(8):
        pool, oracle = make_random_instance(rng)
        for driver in (faircg1_fractional, faircg2_fractional):
            res = driver(pool, ExtensionEvaluator(oracle), step_count=25)
            y = res.y1.coords
            assert abs(y.sum() - pool.k) <= 1e-6
            assert (y >= pool.fairness - 1e-9).all()
            assert res.clamp_excess <= 1e-9


def test_demo_lower_bound_at_hundred_steps(demo):
    pool, oracle = demo
    u_opt = solve_uopt(pool, oracle).u_opt
    res = faircg1_fractional(pool, ExtensionEvaluator(oracle), step_count=100)
    assert res.value >= (1.0 - 1.0 / math.e) * u_opt - 0.01


def test_per_step_gain_covers_the_remaining_gap(demo):
    # at every step the chosen direction's linear gain must dominate the gap
    # to the stationary optimum (exact-mode audit on the bundled instance)
    pool, oracle = demo
    u_opt = solve_uopt(pool, oracle).u_opt
    res = faircg2_fractional(pool, ExtensionEvaluator(oracle), step_count=50)
    for step in res.steps:
        assert step.linear_gain >= u_opt - step.extension_value - 1e-6


def test_monte_carlo_mode_is_reproducible():
    rng = np.random.default_rng(41)
    pool, oracle = make_random_instance(rng, n_range=(5, 6))
    estimator = ExtensionEstimator(mode="monte_carlo", samples=2000, seed=77)
    res_a = faircg1_fractional(pool, ExtensionEvaluator(oracle, estimator), step_count=8)
    res_b = faircg1_fractional(pool, ExtensionEvaluator(oracle, estimator), step_count=8)
    assert np.array_equal(res_a.y1.coords, res_b.y1.coords)
    assert res_a.value == res_b.value
    assert res_a.estimator_mode == "monte_carlo"


def test_infeasible_and_bad_step_count():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.8, 0.8]))
    oracle = ModularOracle([1.0, 1.0])
    with pytest.raises(FeasibilityError):
        faircg1_fractional(pool, ExtensionEvaluator(oracle))
    ok_pool = WorkerPool(n=2, k=1, fairness=np.zeros(2))
    with pytest.raises(ValueError):
        faircg1_fractional(ok_pool, ExtensionEvaluator(oracle), step_count=0)


def test_single_step_jumps_to_one_vertex():
    pool = WorkerPool(n=3, k=1, fairness=np.zeros(3))
    oracle = ModularOracle([1.0, 5.0, 2.0])
    res = faircg1_fractional(pool, ExtensionEvaluator(oracle), step_count=1)
    assert res.y1.coords == pytest.approx([0.0, 1.0, 0.0], abs=0)


def test_y1_is_a_read_only_copy_of_the_point_as_computed():
    y = np.array([1e-10, 1.0 - 1e-10, 0.5])
    point = FractionalPoint(y)
    y[2] = 0.25
    # no coordinate is snapped, and the record does not alias its source
    assert point.coords.tolist() == [1e-10, 1.0 - 1e-10, 0.5]
    with pytest.raises(ValueError):
        point.coords[0] = 0.0
    assert np.array_equal(np.asarray(point), point.coords)
    for bad in ([0.5, 1.0 + 5e-10], [float("nan")], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            FractionalPoint(bad)
    with pytest.raises(ContractError, match="coordinate 1 = -0.25 outside"):
        FractionalPoint([0.5, -0.25])
