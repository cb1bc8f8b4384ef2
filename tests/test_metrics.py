import math

import numpy as np
import pytest

from fairsel import (
    ModularOracle,
    SelectionTrace,
    WorkerPool,
    bound_certificates,
    fairness_report,
)
from fairsel.metrics import TRACE_BLOCK, concession_rate
from fairsel.multilinear import ExtensionEstimator, ExtensionEvaluator


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
    assert np.flatnonzero(~rep.satisfied).tolist() == [1]
    assert not rep.all_satisfied
    # a worker exactly eps below the floor still passes
    rep = fairness_report(tiny_trace, [1.0, 0.501, 0.5], eps=1e-3)
    assert rep.all_satisfied
    with pytest.raises(ValueError):
        fairness_report(tiny_trace, [1.0, 0.5])


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


@pytest.mark.parametrize("length", [1, 3])
def test_fairness_checks_reject_a_floor_vector_of_the_wrong_length(length):
    # a one-element vector must not broadcast to every worker, and a longer
    # one must fail by shape, not inside numpy
    trace = SelectionTrace(np.tile([True, False, True, False], (20, 1)), np.zeros(20))
    wrong_shape = rf"fairness vector has shape \({length},\), expected \(4,\)"
    with pytest.raises(ValueError, match=wrong_shape):
        fairness_report(trace, [0.4] * length)
