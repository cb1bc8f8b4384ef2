import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairsel import (
    AccuracyOracle,
    ContractError,
    CoverageOracle,
    ModularOracle,
    SizeLimitError,
    ExtensionEstimator,
    ExtensionEvaluator,
    WorkerPool,
    faircg2_fractional,
)

from conftest import ORACLE_KINDS, exact_mean_sigma, make_random_oracle

EXACT = ExtensionEstimator(mode="exact")


def mc(samples, seed=0):
    return ExtensionEstimator(mode="monte_carlo", samples=samples, seed=seed)


@pytest.fixture()
def two_worker():
    # f(empty)=0, f({0})=f({1})=1, f({0,1})=1.5
    return CoverageOracle(2, item_weights=[0.5, 0.5, 0.5], covers=[(0, 1), (1, 2)])


def test_exact_two_worker_example(two_worker):
    evaluator = ExtensionEvaluator(two_worker, EXACT)
    assert evaluator.value((0.5, 0.5)) == pytest.approx(0.875, abs=1e-12)
    assert evaluator.value((1.0, 0.5)) == pytest.approx(1.25, abs=1e-12)


def test_exact_weights_two_worker_example(two_worker):
    w, value = ExtensionEvaluator(two_worker).weights((0.5, 0.5))
    assert w == pytest.approx([0.375, 0.375], abs=1e-12)
    assert value == pytest.approx(0.875, abs=1e-12)


def test_extension_at_corners(demo):
    _, oracle = demo
    n = oracle.n
    evaluator = ExtensionEvaluator(oracle, EXACT)
    assert evaluator.value(np.zeros(n)) == 0.0
    full = oracle.evaluate(range(n))
    assert evaluator.value(np.ones(n)) == pytest.approx(full, abs=1e-12)


def test_extension_is_affine_per_coordinate():
    rng = np.random.default_rng(3)
    oracle = make_random_oracle(rng, 7)
    evaluator = ExtensionEvaluator(oracle, EXACT)
    y = rng.uniform(0.1, 0.9, 7)
    for u in (0, 4, 6):
        lo, hi = y.copy(), y.copy()
        lo[u], hi[u] = 0.0, 1.0
        expected = (1.0 - y[u]) * evaluator.value(lo) + y[u] * evaluator.value(hi)
        assert evaluator.value(y) == pytest.approx(expected, abs=1e-10)


def _forced_differences(evaluator, y):
    """Reference weights: F(y with y_u forced to 1) - F(y), one pass per u."""
    y = np.asarray(y, dtype=float)
    base = evaluator.value(y)
    w = np.zeros(y.size)
    for u in range(y.size):
        if y[u] == 1.0:
            continue  # forcing u changes nothing
        forced = y.copy()
        forced[u] = 1.0
        w[u] = evaluator.value(forced) - base
    return w


EXACT_COORDINATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ORACLE_KINDS),
    y=st.lists(EXACT_COORDINATES, min_size=1, max_size=10),
)
# saturated coordinates, whose weight must come out exactly 0.0
@example(seed=3, kind="coverage", y=[1.0, 0.3, 1.0, 0.0, 0.6])
@example(seed=5, kind="accuracy", y=[1.0, 1.0, 1.0])
@example(seed=7, kind="modular", y=[0.0, 1.0, 5e-324, 1.0 - 2**-53])
def test_exact_weights_match_forced_differences(seed, kind, y):
    y = np.array(y)
    oracle = make_random_oracle(np.random.default_rng(seed), y.size, kind=kind)
    evaluator = ExtensionEvaluator(oracle, EXACT)
    w, value = evaluator.weights(y)
    scale = max(1.0, oracle.evaluate(range(y.size)))
    assert np.abs(w - _forced_differences(evaluator, y)).max() <= 1e-12 * scale
    # the same forward pass gives both, so the baseline matches F(y) bit for bit
    assert value == evaluator.value(y)
    # the raw kernel output, with nothing clipped: never negative, and
    # exactly zero where the worker is in every set the extension averages
    assert (w >= 0.0).all()
    assert (w[y == 1.0] == 0.0).all()


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_exact_weights_at_the_exact_cap(kind):
    rng = np.random.default_rng(15)
    oracle = make_random_oracle(rng, 15, kind=kind)
    evaluator = ExtensionEvaluator(oracle, EXACT)
    scale = max(1.0, oracle.evaluate(range(15)))
    saturated = rng.uniform(0.0, 1.0, 15)
    saturated[::4] = 1.0
    for y in (np.zeros(15), np.full(15, 0.5), rng.uniform(0.0, 1.0, 15), saturated):
        w, value = evaluator.weights(y)
        assert np.abs(w - _forced_differences(evaluator, y)).max() <= 1e-12 * scale
        assert (w >= 0.0).all()
        assert (w[y == 1.0] == 0.0).all()
        assert value == evaluator.value(y)
        assert abs(value - exact_mean_sigma(oracle, y)[0]) <= 1e-12 * scale


def test_exact_weights_take_one_table_pass_per_call(monkeypatch):
    # one contraction of the 2^n table per weights call and per value call;
    # a kernel that re-evaluates F at each forced point would make n + 1
    calls = []
    contract = ExtensionEvaluator._contract

    def spy(self, coords):
        calls.append(coords)
        return contract(self, coords)

    monkeypatch.setattr(ExtensionEvaluator, "_contract", spy)
    rng = np.random.default_rng(4)
    evaluator = ExtensionEvaluator(make_random_oracle(rng, 9), EXACT)
    points = [np.zeros(9), np.full(9, 0.5), rng.uniform(0.0, 1.0, 9)]
    for y in points:
        evaluator.weights(y)
    assert len(calls) == len(points)
    for y in points:
        evaluator.value(y)
    assert len(calls) == 2 * len(points)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ORACLE_KINDS),
    y=st.lists(EXACT_COORDINATES, min_size=1, max_size=10),
)
# coordinates within SNAP_EPS of a bound, which an evaluator that snapped
# would move
@example(seed=1, kind="accuracy", y=[1e-9])
@example(seed=2, kind="coverage", y=[1.0 - 5e-10, 0.5, 1e-10])
def test_exact_value_matches_the_weighted_table_sum(seed, kind, y):
    # exact_mean_sigma weights each of the 2^n rows by its own product of
    # probabilities and shares no code with the contraction; both are taken
    # at y itself, since the evaluator moves no coordinate
    oracle = make_random_oracle(np.random.default_rng(seed), len(y), kind=kind)
    evaluator = ExtensionEvaluator(oracle, EXACT)
    scale = max(1.0, oracle.evaluate(range(len(y))))
    reference, _ = exact_mean_sigma(oracle, y)
    assert abs(evaluator.value(y) - reference) <= 1e-12 * scale


def test_exact_value_is_taken_at_the_point_itself():
    # a coordinate within 1e-9 of a bound is not snapped onto it
    oracle = AccuracyOracle([100.0])
    evaluator = ExtensionEvaluator(oracle, EXACT)
    assert evaluator.value([1e-9]) == 1e-9 * oracle.evaluate({0})
    assert evaluator.value([1e-9]) > 0.0
    assert evaluator.value([1.0 - 1e-10]) < oracle.evaluate({0})
    with pytest.raises(ContractError, match="outside"):
        evaluator.value([1.0 + 5e-10])
    for bad in (float("nan"), float("inf"), -1e-300):
        with pytest.raises(ContractError):
            evaluator.weights([bad])


def test_coverage_weights_never_round_below_zero():
    # worker 1 covers nothing worker 0 does not, so once y_0 = 1 its true
    # weight is 0; subtracting two separately rounded sums made it -1.1e-16,
    # and water filling then rejected the weight vector mid-run
    oracle = CoverageOracle(3, [0.1, 0.2, 0.3, 0.7], [(0, 1, 2), (1,), (3,)])
    evaluator = ExtensionEvaluator(oracle, EXACT)
    w = evaluator.weights((1.0, 0.1, 0.15))[0]
    assert w[0] == 0.0 and w[1] == 0.0
    assert w[2] == pytest.approx(0.7 * 0.85, abs=1e-15)
    pool = WorkerPool(3, 2, fairness=[1.0, 0.1, 0.15])
    result = faircg2_fractional(pool, evaluator, step_count=9)
    assert result.y1.coords == pytest.approx([1.0, 0.1, 0.9], abs=1e-12)


def test_weight_is_zero_at_saturated_coordinate():
    oracle = ModularOracle([0.3, 0.9])
    w = ExtensionEvaluator(oracle).weights((1.0, 0.5))[0]
    assert w[0] == 0.0


def test_modular_weights_at_origin_equal_the_weights():
    m = np.array([0.2, 0.7, 0.1, 0.4])
    w = ExtensionEvaluator(ModularOracle(m)).weights(np.zeros(4))[0]
    assert w == pytest.approx(m, abs=1e-12)


def test_mc_exact_at_integral_points():
    evaluator = ExtensionEvaluator(ModularOracle([1.0, 2.0, 3.0]), mc(100))
    assert evaluator.value(np.zeros(3)) == 0.0
    assert evaluator.value(np.ones(3)) == pytest.approx(6.0, abs=1e-12)


def test_mc_close_to_exact_on_two_worker_example(two_worker):
    est = ExtensionEvaluator(two_worker, mc(1_000_000)).value((0.5, 0.5))
    assert est == pytest.approx(0.875, abs=0.005)


def test_mc_is_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(5)
    oracle = make_random_oracle(rng, 8)
    y = rng.uniform(0.2, 0.8, 8)
    evaluator = ExtensionEvaluator(oracle, mc(5000, seed=42))
    a = evaluator.value(y, stream=3)
    b = ExtensionEvaluator(oracle, mc(5000, seed=42)).value(y, stream=3)
    assert a == b  # bit-identical, not just close
    assert a != ExtensionEvaluator(oracle, mc(5000, seed=43)).value(y, stream=3)
    assert a != evaluator.value(y, stream=4)


def test_mc_chunking_does_not_change_the_sample_law():
    # samples not a multiple of the chunk size: the short last chunk counts
    oracle = ModularOracle(np.linspace(0.1, 1.0, 6))
    y = np.full(6, 0.5)
    est, se = ExtensionEvaluator(oracle, mc(10_000, seed=9)).value_with_stderr(y)
    assert se > 0.0
    assert est == pytest.approx(float(np.sum(y * np.linspace(0.1, 1.0, 6))), abs=4 * se)


def test_mc_weights_with_crn_are_nonnegative_and_accurate():
    rng = np.random.default_rng(21)
    oracle = make_random_oracle(rng, 9)
    y = rng.uniform(0.1, 0.9, 9)
    exact_w = ExtensionEvaluator(oracle, EXACT).weights(y)[0]
    w = ExtensionEvaluator(oracle, mc(40_000, seed=1)).weights(y)[0]
    assert (w >= 0.0).all()
    assert np.abs(w - exact_w).max() < 0.02


# Coordinates sit at 0, 1 or inside [0.05, 0.95]: at 2000 samples every
# worker is then drawn both in and out of the set. A coordinate of 1e-3 may
# never be drawn at all, which leaves the sample sigma at 0 while F(y) is not.
COORDINATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ORACLE_KINDS),
    y=st.lists(COORDINATES, min_size=1, max_size=8),
)
def test_sampled_extension_and_crn_weights_on_random_oracles(seed, kind, y):
    oracle = make_random_oracle(np.random.default_rng(seed), len(y), kind=kind)
    evaluator = ExtensionEvaluator(oracle, mc(2000, seed=seed))
    exact = ExtensionEvaluator(oracle, EXACT)
    value, sigma = evaluator.value_with_stderr(y)
    assert abs(value - exact.value(y)) <= 4.0 * sigma + 1e-12
    # per sample, f(S + u) - f(S) lies in [0, f({u})] for a monotone
    # submodular f with f(empty) = 0, so every CRN average does too; by
    # Hoeffding, 2000 such samples miss the exact weight by 0.1 f({u}) with
    # probability below 1e-16
    w, base = evaluator.weights(y)
    # the baseline shares its sampled sets with value_with_stderr's estimate
    assert base == value
    singletons = np.array([oracle.evaluate({u}) for u in range(len(y))])
    assert (w >= 0.0).all()
    assert (w <= singletons + 1e-12).all()
    assert (np.abs(w - exact.weights(y)[0]) <= 0.1 * singletons + 1e-12).all()


def test_crn_weights_cost_less_than_a_pass_per_point():
    # independent draws would cost one full pass for the baseline and one per
    # forced point; common random numbers re-query only the rows that change
    oracle = make_random_oracle(np.random.default_rng(8), 6, kind="modular")
    samples = 2000
    ExtensionEvaluator(oracle, mc(samples)).weights(np.full(6, 0.5))
    assert oracle.query_count < samples * (6 + 1)


def test_evaluator_caches_the_exact_table(demo):
    _, oracle = demo
    before = oracle.query_count
    evaluator = ExtensionEvaluator(oracle, EXACT)
    evaluator.value(np.full(10, 0.3))
    first = oracle.query_count
    assert first - before == 2**10
    evaluator.value(np.full(10, 0.6))
    evaluator.weights(np.full(10, 0.6))
    assert oracle.query_count == first  # reused table, no new queries


def test_exact_mode_size_cap():
    oracle = ModularOracle(np.ones(16))
    with pytest.raises(SizeLimitError):
        ExtensionEvaluator(oracle, EXACT)
    # auto mode silently switches to sampling instead
    evaluator = ExtensionEvaluator(oracle, ExtensionEstimator(samples=500))
    assert evaluator.mode == "monte_carlo"


def test_estimator_validation():
    with pytest.raises(ValueError):
        ExtensionEstimator(mode="bogus")
    with pytest.raises(ValueError):
        ExtensionEstimator(samples=0)
    # a fractional or boolean count fails here, not mid-run in the sampler
    for samples in (2.5, 2000.0, True):
        with pytest.raises(ValueError, match="integer"):
            ExtensionEstimator(samples=samples)
    assert ExtensionEstimator(samples=np.int64(500)).sample_count(3) == 500


def test_point_dimension_mismatch_rejected():
    oracle = ModularOracle([1.0, 1.0])
    with pytest.raises(ValueError):
        ExtensionEvaluator(oracle).value((0.5, 0.5, 0.5))
