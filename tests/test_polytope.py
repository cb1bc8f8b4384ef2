import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fairsel import ContractError, FeasibilityError, WorkerPool, maximize_linear
from fairsel.presets import demo_fairness

from conftest import make_random_floors, water_fill_brute


def _pool(r, k):
    return WorkerPool(n=len(r), k=k, fairness=r)


def test_feasibility_examples():
    assert _pool(demo_fairness(0.42), 6).is_feasible()  # floors sum to 4.2 < 6
    assert _pool(np.zeros(4), 1).is_feasible()
    assert not _pool([0.9, 0.9, 0.9], 2).is_feasible()
    assert _pool([0.5, 0.5, 1.0], 2).is_feasible()  # boundary: sum exactly k


def test_water_filling_hand_example():
    pool = _pool(np.array([0.2, 0.2, 0.2]), k=2)
    x = maximize_linear(pool, [3.0, 1.0, 2.0])
    assert x == pytest.approx([1.0, 0.2, 0.8], abs=1e-9)


def test_water_filling_top_k_at_zero_floors():
    pool = _pool(np.zeros(3), k=2)
    x = maximize_linear(pool, [5.0, 1.0, 3.0])
    assert x == pytest.approx([1.0, 0.0, 1.0], abs=0)


def test_water_filling_singleton_polytope():
    r = np.array([0.5, 0.5, 1.0])
    x = maximize_linear(_pool(r, k=2), [9.0, 1.0, 5.0])
    assert x == pytest.approx(r, abs=1e-12)


def test_water_filling_tie_breaks_toward_lower_id():
    x = maximize_linear(_pool(np.zeros(3), k=1), [1.0, 1.0, 1.0])
    assert x.tolist() == [1.0, 0.0, 0.0]


def test_water_filling_output_always_sums_to_budget():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        r = make_random_floors(rng, n, k)
        x = maximize_linear(_pool(r, k), rng.uniform(0.0, 3.0, n))
        assert abs(x.sum() - k) <= 1e-9
        assert (x >= r - 1e-9).all()


# 0.5 among the fixed values makes ties in the weights
_UNIT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _water_filling_cases(draw):
    """(k, load, raw floors, weights) for n = 1..7 workers: the floors are raw
    scaled to sum to load * k, then capped at 1."""
    n = draw(st.integers(1, 7))
    load = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    k = draw(st.integers(1, n))
    raw = draw(st.lists(_UNIT, min_size=n, max_size=n))
    w = draw(st.lists(_UNIT, min_size=n, max_size=n))
    return k, load, raw, w


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=_water_filling_cases())
# subnormal raw sums, whose scale overflowed when multiplied before dividing
@example(case=(1, 1.0, [5e-324, 0.0], [0.5, 1.0]))
@example(case=(2, 0.5, [5e-324, 1e-323, 5e-324], [1.0, 0.0, 1.0]))
# floors of exactly 0 and exactly 1, with the budget tight and with room
@example(case=(2, 1.0, [1.0, 0.0, 1.0], [0.0, 1.0, 0.5]))
@example(case=(3, 1.0, [1.0, 0.0, 1.0, 0.5], [0.5, 0.5, 0.0, 1.0]))
def test_water_filling_matches_vertex_enumeration(case):
    # every vertex of P sits at r_u or 1 in each coordinate except at most
    # one, which the budget sets; water filling must reach the best of them
    k, load, raw, w = case
    raw, w = np.array(raw), np.array(w)
    # dividing first keeps a subnormal sum from overflowing the scale to inf
    r = raw / raw.sum() * (load * k) if raw.sum() > 0.0 else raw
    pool = _pool(np.minimum(r, 1.0), k)
    assume(pool.is_feasible())
    r = pool.fairness
    x = maximize_linear(pool, w)
    assert (x >= r).all() and (x <= 1.0).all()
    assert float(w @ x) == pytest.approx(water_fill_brute(r, k, w), abs=1e-12)


def test_water_filling_keeps_a_floor_within_snapping_distance_of_zero():
    # snapping the tiny floor to 0 would put x below the floor
    r = np.array([1.0, 1.4e-237])
    x = maximize_linear(_pool(r, k=1), [1.0, 1.0])
    assert (x >= r).all()
    assert x.tolist() == [1.0, 1.4e-237]


def test_water_filling_reaches_a_vertex_within_snapping_distance_of_one():
    # the best vertex puts the leftover 1e-12 on worker 2; snapping
    # 1 - 1e-12 to 1 and 1e-12 to 0 would leave w.x = 0
    r = np.array([0.0, 1.0 - 1e-12, 1e-12])
    w = np.array([0.0, 0.0, 1.0])
    x = maximize_linear(_pool(r, k=1), w)
    assert (x >= r).all()
    assert float(w @ x) == water_fill_brute(r, 1, w)
    assert float(w @ x) >= 1e-12


def test_water_filling_errors():
    with pytest.raises(FeasibilityError):
        maximize_linear(_pool(np.array([0.9, 0.9]), k=1), [1.0, 1.0])
    pool = _pool(np.zeros(2), k=1)
    with pytest.raises(ContractError):
        maximize_linear(pool, [1.0, -0.5])
    with pytest.raises(ValueError):
        maximize_linear(pool, [1.0, 1.0, 1.0])
