import math

import numpy as np
import pytest

from fairsel import (
    ModularOracle,
    SelectionTrace,
    WorkerPool,
    alpha_fairness_check,
    bound_certificates,
    dep_round_many,
    derive_rng,
    fairness_report,
    hoeffding_tail_check,
)
from fairsel.metrics import TRACE_BLOCK, concession_rate
from fairsel.multilinear import ExtensionEstimator, ExtensionEvaluator


def _rounded_matrix(y, seed, member, horizon):
    """(T, n) selection matrix of T independent roundings of y: the rounds
    take successive n-uniform draws of one derive_rng(seed, member) stream."""
    return dep_round_many(y, derive_rng(seed, member).random((horizon, len(y))))


@pytest.fixture()
def tiny_trace():
    # three workers, four rounds: {0,1}, {0,2}, {0,1}, {0,2}
    selected = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 0], [1, 0, 1]], dtype=bool)
    uts = [1.0, 2.0, 3.0, 2.0]
    return SelectionTrace(selected, uts)


def test_trace_views(tiny_trace):
    assert tiny_trace.horizon == 4
    assert tiny_trace.n == 3
    assert tiny_trace.selection_matrix().sum() == 8
    assert tiny_trace.selections.tolist() == [[0, 1], [0, 2], [0, 1], [0, 2]]
    (_, counts), = tiny_trace.count_blocks()
    assert counts[-1].tolist() == [4, 2, 2]
    assert tiny_trace.fractions() == pytest.approx([1.0, 0.5, 0.5])
    assert tiny_trace.running_average() == pytest.approx([1.0, 1.5, 2.0, 2.0])
    assert tiny_trace.mean_utility() == pytest.approx(2.0)
    assert tiny_trace.running_average()[-1] == pytest.approx(tiny_trace.mean_utility())


def test_max_debt_by_hand(tiny_trace):
    r = np.array([0.5, 0.5, 0.5])
    # worker 1 is unselected in rounds 2 and 4: debt peaks at 0.5*2-1 = 0 ... etc.
    debts = tiny_trace.max_debt(r)
    assert debts == pytest.approx([-0.5, 0.0, 0.5])


def test_count_blocks_and_max_debt_match_the_full_matrices():
    rng = np.random.default_rng(12)
    horizon, n = 2 * TRACE_BLOCK + 7, 5
    trace = SelectionTrace(rng.random((horizon, n)) < 0.4, np.zeros(horizon))
    blocks = list(trace.count_blocks())
    assert [counts.shape[0] for _, counts in blocks] == [TRACE_BLOCK, TRACE_BLOCK, 7]
    t = np.concatenate([t for t, _ in blocks])
    np.testing.assert_array_equal(t[:, 0], np.arange(1, horizon + 1))
    full = np.cumsum(trace.selected, axis=0)
    np.testing.assert_array_equal(np.concatenate([counts for _, counts in blocks]), full)
    r = rng.uniform(0.1, 0.6, n)
    np.testing.assert_array_equal(trace.max_debt(r), (r[None, :] * t - full).max(axis=0))


def test_trace_validation():
    with pytest.raises(ValueError):
        SelectionTrace(np.zeros((1, 2), dtype=bool), [1.0, 2.0])
    with pytest.raises(ValueError):
        SelectionTrace(np.zeros((0, 2), dtype=bool), [])
    with pytest.raises(ValueError):
        SelectionTrace(np.zeros(2, dtype=bool), [1.0])


def test_selections_need_equal_round_sizes():
    uneven = SelectionTrace(np.array([[1, 1, 0], [1, 0, 0]], dtype=bool), [1.0, 1.0])
    with pytest.raises(ValueError):
        uneven.selections
    assert uneven.fractions().tolist() == [1.0, 0.5, 0.0]


def test_fairness_report_flags(tiny_trace):
    rep = fairness_report(tiny_trace, [1.0, 0.6, 0.5])
    assert rep.satisfied.tolist() == [True, False, True]
    assert rep.unsatisfied_ids == (1,)
    assert not rep.all_satisfied
    # a worker exactly eps below the floor still passes
    rep = fairness_report(tiny_trace, [1.0, 0.501, 0.5], eps=1e-3)
    assert rep.all_satisfied
    with pytest.raises(ValueError):
        fairness_report(tiny_trace, [1.0, 0.5])


def test_alpha_fairness_first_violation():
    # worker 1 never selected (r=0.6): first round with 0 < 0.6 - 1/t is t=2
    trace = SelectionTrace(np.tile([True, False], (5, 1)), [0.0] * 5)
    res = alpha_fairness_check(trace, [0.0, 0.6], alpha=1.0)
    assert not res.ok
    assert res.first_violation == (2, 1)
    assert alpha_fairness_check(trace, [0.0, 0.0], alpha=1.0).ok
    with pytest.raises(ValueError):
        alpha_fairness_check(trace, [0.0, 0.6], alpha=0.0)


def _first_violation_reference(selected, r, alpha):
    """The earliest (round, worker) below r_u - t**-alpha, from the full count matrix."""
    t = np.arange(1, selected.shape[0] + 1, dtype=float)[:, None]
    bad = np.cumsum(selected, axis=0) / t < r[None, :] - t ** (-alpha)
    rounds, workers = np.nonzero(bad)
    return (int(rounds[0]) + 1, int(workers[0])) if rounds.size else None


def test_alpha_fairness_check_joins_its_count_blocks():
    # worker 1 takes every other round until round 6000 and then none, so its
    # fraction first falls below 0.45 - t**-0.5 in the trace's second block
    horizon = 2 * TRACE_BLOCK + 13
    selected = np.zeros((horizon, 3), dtype=bool)
    selected[:, 0] = True
    selected[:6000:2, 1] = True
    r = np.array([0.9, 0.45, 0.0])
    res = alpha_fairness_check(SelectionTrace(selected, np.zeros(horizon)), r, alpha=0.5)
    assert res.first_violation == _first_violation_reference(selected, r, 0.5)
    assert res.first_violation[0] > TRACE_BLOCK + 1
    rng = np.random.default_rng(44)
    for _ in range(20):
        rounds = int(rng.integers(1, horizon))
        drift = np.linspace(0.7, rng.uniform(0.2, 0.7), rounds)[:, None]
        selected = rng.random((rounds, 4)) < drift
        r, alpha = rng.uniform(0.3, 0.7, 4), float(rng.uniform(0.2, 1.0))
        res = alpha_fairness_check(SelectionTrace(selected, np.zeros(rounds)), r, alpha)
        assert res.first_violation == _first_violation_reference(selected, r, alpha)
        assert res.ok == (res.first_violation is None)


def test_concession_rate(demo):
    pool, _ = demo
    assert concession_rate(pool) == pytest.approx(0.3, abs=1e-12)
    assert concession_rate(WorkerPool(n=4, k=2, fairness=np.zeros(4))) == 1.0
    hot = WorkerPool(n=4, k=2, fairness=np.array([1.0, 0.2, 0.2, 0.2]))
    assert concession_rate(hot) == 0.0  # max floor saturates the clock


def test_bound_certificates_formulas(demo):
    pool, oracle = demo
    y1 = np.minimum(pool.fairness + 0.18, 1.0)
    evaluator = ExtensionEvaluator(oracle)
    cert = bound_certificates(pool, evaluator, y1, u_opt=0.85, f_of_r=0.83, tol=1e-3)
    c_r = concession_rate(pool)
    assert cert.mode == "exact"
    assert cert.sigma == 0.0
    assert cert.c_r == pytest.approx(c_r, abs=1e-15)
    assert cert.variant_one_bound == pytest.approx((1 - 1 / math.e) * 0.85, abs=1e-12)
    expected_two = (1 - math.exp(-c_r)) * 0.85 + 0.83 * math.exp(-c_r)
    assert cert.variant_two_bound == pytest.approx(expected_two, abs=1e-12)
    assert cert.variant_one_ok == (cert.extension_value >= cert.variant_one_bound - 1e-3)
    assert cert.variant_two_ok == (cert.extension_value >= cert.variant_two_bound - 1e-3)


def test_bound_certificate_tolerance_boundary():
    pool = WorkerPool(n=3, k=2, fairness=np.zeros(3))
    oracle = ModularOracle([1.0, 1.0, 1.0])
    y1 = np.array([1.0, 1.0, 0.0])  # extension value exactly 2
    evaluator = ExtensionEvaluator(oracle)
    share = 1 - 1 / math.e
    just_inside = (2.0 + 0.9e-3) / share
    assert bound_certificates(pool, evaluator, y1, just_inside, 0.0).variant_one_ok
    just_outside = (2.0 + 1.1e-3) / share
    assert not bound_certificates(pool, evaluator, y1, just_outside, 0.0).variant_one_ok


def test_bound_certificates_mc_mode_widens_tolerance():
    pool = WorkerPool(n=3, k=2, fairness=np.zeros(3))
    oracle = ModularOracle([1.0, 1.0, 1.0])
    y1 = np.array([0.9, 0.9, 0.2])
    estimator = ExtensionEstimator(mode="monte_carlo", samples=4000, seed=3)
    evaluator = ExtensionEvaluator(oracle, estimator)
    cert = bound_certificates(pool, evaluator, y1, u_opt=2.0, f_of_r=0.0)
    assert cert.mode == "monte_carlo"
    assert cert.sigma > 0.0
    slack = cert.tol + 3.0 * cert.sigma
    assert cert.variant_one_ok == (cert.extension_value >= cert.variant_one_bound - slack)


def test_hoeffding_tail_check():
    y = np.array((0.6, 0.4, 0.5, 0.5))
    horizon, ensemble = 400, 150
    traces = []
    for m in range(ensemble):
        traces.append(SelectionTrace(_rounded_matrix(y, 100, m, horizon), np.zeros(horizon)))
    report = hoeffding_tail_check(traces, y, delta=0.1)
    assert report.ok
    assert report.bound == pytest.approx(math.exp(-2 * horizon * 0.01), abs=1e-15)
    assert (report.frequencies <= report.bound + report.statistical_slack).all()


def test_hoeffding_preconditions():
    y = np.array((0.5, 0.5))
    traces = [SelectionTrace(_rounded_matrix(y, 1, m, 10), np.zeros(10)) for m in range(100)]
    with pytest.raises(ValueError):
        hoeffding_tail_check(traces[:99], y, delta=0.1)
    with pytest.raises(ValueError):
        hoeffding_tail_check(traces, y, delta=0.0)
    short = SelectionTrace(np.tile([True, False], (9, 1)), np.zeros(9))
    with pytest.raises(ValueError):
        hoeffding_tail_check(traces[:99] + [short], y, delta=0.1)
    wide = SelectionTrace(np.tile([True, False, False], (10, 1)), np.zeros(10))
    with pytest.raises(ValueError, match="worker count"):
        hoeffding_tail_check(traces[:99] + [wide], y, delta=0.1)


@pytest.mark.parametrize("length", [1, 3])
def test_fairness_checks_reject_a_floor_vector_of_the_wrong_length(length):
    # a one-element vector must not broadcast to every worker, and a longer
    # one must fail by shape, not inside numpy
    y = np.array((0.6, 0.4, 0.5, 0.5))
    traces = [SelectionTrace(_rounded_matrix(y, 3, m, 20), np.zeros(20)) for m in range(100)]
    floors = [0.4] * length
    wrong_shape = rf"fairness vector has shape \({length},\), expected \(4,\)"
    with pytest.raises(ValueError, match=wrong_shape):
        fairness_report(traces[0], floors)
    with pytest.raises(ValueError, match=wrong_shape):
        alpha_fairness_check(traces[0], floors, alpha=0.5)
    with pytest.raises(ValueError, match=wrong_shape):
        hoeffding_tail_check(traces, np.array(floors), delta=0.1)
