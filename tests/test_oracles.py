import re
import threading
import warnings

import numpy as np
import pytest

from fairsel import (
    AccuracyOracle,
    CoverageOracle,
    FeasibilityError,
    ModularOracle,
    SizeLimitError,
    UtilityOracle,
    WorkerPool,
    check_submodular_monotone,
    marginal_gain,
    maximize_linear,
)
from fairsel.oracles import EVAL_BLOCK, all_subset_masks

from conftest import make_random_oracle

# accuracy utility with the default parameters, pooled counts 1000 and 1900:
# (1 - 0.05) - 0.5 * total**(-0.2), recomputed independently before freezing
ACC_SINGLE_1000 = 0.824405678424521
ACC_PAIR_1900 = 0.8395363767511481
ACC_MARGINAL = ACC_PAIR_1900 - ACC_SINGLE_1000


class _SquaredCardinality(UtilityOracle):
    """f(S) = |S|^2: monotone but supermodular, for checker failure paths."""

    def _values(self, masks):
        return masks.sum(axis=1).astype(float) ** 2


class _SingletonDip(UtilityOracle):
    """f = -1 on singletons, 0 elsewhere: violates both properties."""

    def _values(self, masks):
        return np.where(masks.sum(axis=1) == 1, -1.0, 0.0)


def test_accuracy_matches_closed_form(demo):
    _, oracle = demo
    assert oracle.evaluate(()) == 0.0
    assert oracle.evaluate({2}) == pytest.approx(ACC_SINGLE_1000, abs=1e-6)
    assert oracle.evaluate({2, 7}) == pytest.approx(ACC_PAIR_1900, abs=1e-6)


def test_marginal_gain_values_and_cost(demo):
    _, oracle = demo
    oracle.reset_query_count()
    assert marginal_gain(oracle, (), 2) == pytest.approx(ACC_SINGLE_1000, abs=1e-6)
    assert marginal_gain(oracle, {2}, 7) == pytest.approx(ACC_MARGINAL, abs=1e-6)
    assert oracle.query_count == 4
    with pytest.raises(ValueError):
        marginal_gain(oracle, {2}, 2)


def test_modular_marginal_is_the_weight():
    oracle = ModularOracle([0.4, 1.3, 0.7])
    assert marginal_gain(oracle, {0}, 1) == pytest.approx(1.3, abs=1e-15)
    assert marginal_gain(oracle, (), 2) == pytest.approx(0.7, abs=1e-15)


def test_query_accounting():
    oracle = ModularOracle([1.0, 2.0])
    assert oracle.query_count == 0
    oracle.evaluate({0})
    assert oracle.query_count == 1
    oracle.evaluate_many(np.zeros((5, 2), dtype=bool))
    assert oracle.query_count == 6
    oracle.reset_query_count()
    assert oracle.query_count == 0


@pytest.mark.parametrize("kind", ["accuracy", "coverage", "modular"])
def test_long_batches_go_to_the_oracle_in_blocks(kind):
    rng = np.random.default_rng(31)
    oracle = make_random_oracle(rng, 12, kind)
    blocks = []
    values_of = oracle._values
    oracle._values = lambda masks: blocks.append(masks.shape[0]) or values_of(masks)
    masks = rng.random((2 * EVAL_BLOCK + 5, 12)) < 0.5
    values = oracle.evaluate_many(masks)
    assert blocks == [EVAL_BLOCK, EVAL_BLOCK, 5]
    assert oracle.query_count == masks.shape[0]
    # blocking is invisible in the values, down to the last bit
    np.testing.assert_array_equal(values, values_of(masks))


def test_query_counter_is_thread_safe():
    oracle = ModularOracle(np.ones(4))

    def hammer():
        for _ in range(200):
            oracle.evaluate({1, 3})

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.query_count == 1600


def test_evaluate_rejects_bad_ids_and_shapes():
    oracle = ModularOracle([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        oracle.evaluate({3})
    with pytest.raises(ValueError):
        oracle.evaluate({-1})
    with pytest.raises(ValueError):
        oracle.evaluate_many(np.zeros((2, 4), dtype=bool))


def test_accuracy_parameter_validation():
    with pytest.raises(ValueError):
        AccuracyOracle([100.0, 0.0])
    with pytest.raises(ValueError):
        AccuracyOracle([100.0], min_error=1.0)
    with pytest.raises(ValueError):
        AccuracyOracle([100.0], scale=-0.1)
    with pytest.raises(ValueError):
        AccuracyOracle([100.0], exponent=0.2)


def test_accuracy_clamp_warns_and_floors_at_zero():
    with pytest.warns(RuntimeWarning):
        oracle = AccuracyOracle([1.0, 400.0], min_error=0.2, scale=0.9)
    # singleton {0}: 0.8 - 0.9 * 1 < 0, clamped
    assert oracle.evaluate({0}) == 0.0
    assert oracle.evaluate({1}) > 0.0


def test_coverage_hand_example():
    oracle = CoverageOracle(3, item_weights=[2.0, 1.0, 3.0], covers=[(0, 1), (1, 2), ()])
    assert oracle.evaluate({0}) == 3.0
    assert oracle.evaluate({1}) == 4.0
    assert oracle.evaluate({0, 1}) == 6.0
    assert oracle.evaluate({2}) == 0.0
    assert oracle.evaluate({0, 1, 2}) == 6.0


def test_coverage_validation():
    with pytest.raises(ValueError):
        CoverageOracle(2, [1.0], [(0,), (1,)])  # item id out of range
    with pytest.raises(ValueError):
        CoverageOracle(2, [-1.0], [(), ()])
    with pytest.raises(ValueError):
        CoverageOracle(2, [1.0], [()])  # covers shorter than n


def test_modular_rejects_negative_weights():
    with pytest.raises(ValueError):
        ModularOracle([0.5, -0.1])


def test_structure_check_passes_for_all_bundled_kinds(demo):
    _, acc = demo
    assert check_submodular_monotone(acc).ok
    rng = np.random.default_rng(7)
    for kind in ("coverage", "modular", "accuracy"):
        report = check_submodular_monotone(make_random_oracle(rng, 6, kind=kind))
        assert report.monotone and report.submodular
        assert report.monotone_witness is None and report.submodular_witness is None


def test_structure_check_flags_supermodular_with_witness():
    report = check_submodular_monotone(_SquaredCardinality(5))
    assert report.monotone
    assert not report.submodular
    a, b, u = report.submodular_witness
    assert set(a) < set(b) and u not in b
    oracle = _SquaredCardinality(5)
    gain_a = marginal_gain(oracle, a, u)
    gain_b = marginal_gain(oracle, b, u)
    assert gain_a < gain_b  # diminishing returns genuinely violated


def test_structure_check_flags_non_monotone():
    report = check_submodular_monotone(_SingletonDip(4))
    assert not report.monotone and not report.submodular
    s, u = report.monotone_witness
    assert s == () and u == 0  # adding u to the empty set drops the value


def test_structure_check_size_cap():
    with pytest.raises(SizeLimitError):
        check_submodular_monotone(ModularOracle(np.ones(13)))


def test_structure_check_pool_mismatch():
    pool = WorkerPool(n=3, k=1, fairness=np.zeros(3))
    with pytest.raises(ValueError):
        check_submodular_monotone(ModularOracle(np.ones(4)), pool)


def test_all_subset_masks_bit_order():
    masks = all_subset_masks(3)
    assert masks.shape == (8, 3)
    assert masks[0].tolist() == [False, False, False]
    assert masks[5].tolist() == [True, False, True]  # bitmask 0b101


def test_worker_pool_validation_and_feasibility():
    pool = WorkerPool(n=3, k=2, fairness=np.array([0.5, 0.5, 1.0]))
    assert pool.is_feasible()  # sum exactly k counts as feasible
    pool.require_feasible()
    over = WorkerPool(n=3, k=2, fairness=np.array([0.9, 0.9, 0.9]))
    assert not over.is_feasible()
    message = "floors sum to 2.700000 > budget k=2"
    with pytest.raises(FeasibilityError, match=re.escape(message)):
        over.require_feasible()
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=3, fairness=np.zeros(2))
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=3, fairness=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=1, fairness=np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=1, fairness=np.array([0.5, 1.3]))
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=1, fairness=np.zeros(3))
    with pytest.raises(ValueError):
        WorkerPool(n=2, k=1, fairness=np.zeros(2), sample_counts=np.array([1.0, 0.0]))


NAN = float("nan")
INF = float("inf")
ZERO_FLOOR_POOL = WorkerPool(n=2, k=1, fairness=np.zeros(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: WorkerPool(n=2, k=1, fairness=[NAN, 0.5]),
        lambda: WorkerPool(n=2, k=1, fairness=[0.5, 0.5], sample_counts=[NAN, 1.0]),
        lambda: WorkerPool(n=2, k=1, fairness=[0.5, 0.5], sample_counts=[INF, 1.0]),
        lambda: AccuracyOracle([100.0, NAN]),
        lambda: AccuracyOracle([100.0, INF]),
        lambda: AccuracyOracle([100.0, 200.0], scale=NAN),
        lambda: AccuracyOracle([100.0, 200.0], scale=INF),
        lambda: AccuracyOracle([100.0, 200.0], exponent=NAN),
        lambda: AccuracyOracle([100.0, 200.0], exponent=-INF),
        lambda: ModularOracle([0.5, NAN]),
        lambda: ModularOracle([0.5, INF]),
        lambda: CoverageOracle(2, [0.5, NAN], [(0,), (1,)]),
        lambda: CoverageOracle(2, [0.5, INF], [(0,), (1,)]),
        lambda: maximize_linear(ZERO_FLOOR_POOL, [NAN, 1.0]),
        lambda: maximize_linear(ZERO_FLOOR_POOL, [INF, 1.0]),
    ],
    ids=[
        "floors-nan", "pool-counts-nan", "pool-counts-inf",
        "accuracy-counts-nan", "accuracy-counts-inf", "scale-nan", "scale-inf",
        "exponent-nan", "exponent-neg-inf", "modular-nan", "modular-inf",
        "coverage-nan", "coverage-inf", "linear-weights-nan", "linear-weights-inf",
    ],
)
def test_constructors_reject_nan_and_infinite_numbers(build):
    # a NaN compares false with everything, so a check written as
    # "x < lo or x > hi" lets it through; each of these must raise instead
    with pytest.raises(ValueError):
        build()


def test_worker_pool_arrays_are_frozen(demo):
    pool, _ = demo
    with pytest.raises(ValueError):
        pool.fairness[0] = 0.9
    floors = np.array([0.1, 0.2])
    pool = WorkerPool(n=2, k=1, fairness=floors)
    floors[0] = 0.5  # the pool froze its own copy, not the caller's array
    assert pool.fairness.tolist() == [0.1, 0.2]
