import numpy as np
import pytest

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
    assert x.coords == pytest.approx([1.0, 0.2, 0.8], abs=1e-9)


def test_water_filling_top_k_at_zero_floors():
    pool = _pool(np.zeros(3), k=2)
    x = maximize_linear(pool, [5.0, 1.0, 3.0])
    assert x.coords == pytest.approx([1.0, 0.0, 1.0], abs=0)


def test_water_filling_singleton_polytope():
    r = np.array([0.5, 0.5, 1.0])
    x = maximize_linear(_pool(r, k=2), [9.0, 1.0, 5.0])
    assert x.coords == pytest.approx(r, abs=1e-12)


def test_water_filling_tie_breaks_toward_lower_id():
    x = maximize_linear(_pool(np.zeros(3), k=1), [1.0, 1.0, 1.0])
    assert x.coords.tolist() == [1.0, 0.0, 0.0]


def test_water_filling_output_always_sums_to_budget():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        r = make_random_floors(rng, n, k)
        x = maximize_linear(_pool(r, k), rng.uniform(0.0, 3.0, n))
        assert abs(x.sum() - k) <= 1e-9
        assert (x.coords >= r - 1e-9).all()


def test_water_filling_matches_vertex_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        r = make_random_floors(rng, n, k)
        w = rng.uniform(0.0, 2.0, n)
        if trial % 3 == 0:
            w = np.round(w, 1)  # force ties
        got = float(w @ maximize_linear(_pool(r, k=k), w).coords)
        assert got == pytest.approx(water_fill_brute(r, k, w), abs=1e-9)


def test_water_filling_errors():
    with pytest.raises(FeasibilityError):
        maximize_linear(_pool(np.array([0.9, 0.9]), k=1), [1.0, 1.0])
    pool = _pool(np.zeros(2), k=1)
    with pytest.raises(ContractError):
        maximize_linear(pool, [1.0, -0.5])
    with pytest.raises(ValueError):
        maximize_linear(pool, [1.0, 1.0, 1.0])
