import numpy as np
import pytest

from fairsel import (
    ContractError,
    FractionalPoint,
    WorkerPool,
    dep_round,
    derive_rng,
    maximize_linear,
)
from fairsel.multilinear import ExtensionEvaluator

from conftest import make_random_floors, make_random_oracle


class _ScriptedRng:
    """Stands in for a numpy Generator; returns pre-chosen uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, n):
        out = np.array(self._draws[:n], dtype=float)
        self._draws = self._draws[n:]
        return out


def test_integral_input_passes_through():
    rng = derive_rng(0, 1)
    assert dep_round((1.0, 0.0, 1.0, 0.0), rng) == (0, 2)


def test_two_coordinate_branches():
    # y=(0.5,0.5): a=b=0.5, draw below b/(a+b)=0.5 raises the first coordinate
    assert dep_round((0.5, 0.5), _ScriptedRng([0.2, 0.0])) == (0,)
    assert dep_round((0.5, 0.5), _ScriptedRng([0.8, 0.0])) == (1,)


def test_three_coordinate_scripted_path():
    # pair (0,1): a=0.6, b=0.2, draw 0.1 < 0.25 so y0 -> 1.0, y1 -> 0.2;
    # pair (1,2): a=0.8, b=0.2, draw 0.9 >= 0.2 so y1 -> 0.0, y2 -> 1.0
    sel = dep_round((0.4, 0.8, 0.8), _ScriptedRng([0.1, 0.9, 0.0]))
    assert sel == (0, 2)


def test_output_size_always_matches_the_sum():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        y = maximize_linear(pool, rng.uniform(0.0, 2.0, n))
        sel = dep_round(y, rng)
        assert len(sel) == k
        assert sel == tuple(sorted(sel))
        assert all(0 <= u < n for u in sel)


def test_marginals_are_preserved():
    y = FractionalPoint((0.7, 0.3, 0.55, 0.45, 1.0, 0.0))
    rng = derive_rng(12, 0)
    trials = 20_000
    counts = np.zeros(6)
    for _ in range(trials):
        for u in dep_round(y, rng):
            counts[u] += 1
    freq = counts / trials
    # binomial 4-sigma band per coordinate
    tol = 4.0 * np.sqrt(y.coords * (1.0 - y.coords) / trials)
    assert (np.abs(freq - y.coords) <= tol + 1e-12).all()
    assert freq[4] == 1.0 and freq[5] == 0.0


def test_two_worker_frequency_example():
    y = FractionalPoint((0.5, 0.5))
    rng = derive_rng(4, 0)
    hits = sum(dep_round(y, rng) == (0,) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_rounded_value_does_not_fall_below_the_extension():
    # negative correlation: E[f(rounded set)] >= F(y) for submodular f
    rng = np.random.default_rng(44)
    oracle = make_random_oracle(rng, 8, kind="coverage")
    y = FractionalPoint((0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.5))
    base = ExtensionEvaluator(oracle).value(y)
    draws = derive_rng(44, 1)
    trials = 20_000
    masks = np.zeros((trials, 8), dtype=bool)
    for t in range(trials):
        masks[t, list(dep_round(y, draws))] = True
    vals = oracle.evaluate_many(masks)
    sem = float(vals.std() / np.sqrt(trials))
    assert float(vals.mean()) >= base - 3.0 * sem


def test_determinism_per_stream():
    y = FractionalPoint((0.3, 0.7, 0.6, 0.4))
    run1 = [dep_round(y, derive_rng(9, 5, t)) for t in range(50)]
    run2 = [dep_round(y, derive_rng(9, 5, t)) for t in range(50)]
    assert run1 == run2
    run3 = [dep_round(y, derive_rng(10, 5, t)) for t in range(50)]
    assert run1 != run3


def test_contract_errors():
    rng = derive_rng(0, 0)
    with pytest.raises(ContractError):
        dep_round((0.5, 0.2), rng)  # sum 0.7 not integral
    with pytest.raises(ContractError):
        dep_round((0.5, 1.2), rng)  # outside the unit box
