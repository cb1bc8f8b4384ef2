import numpy as np
import pytest

from fairsel import (
    DebtLedger,
    FeasibilityError,
    ModularOracle,
    WorkerPool,
    dg_round,
    fairdg_round,
    marginal_gain,
    round_robin_policy,
)

from conftest import make_random_floors, make_random_oracle


def test_ledger_mechanics():
    ledger = DebtLedger.fresh(3)
    r = np.array([0.5, 0.25, 0.0])
    assert ledger.debts(r) == pytest.approx([0.5, 0.25, 0.0])
    ledger.record((0, 2))
    assert ledger.next_round == 2
    assert ledger.counts.tolist() == [1, 0, 1]
    assert ledger.debts(r) == pytest.approx([0.0, 0.5, -1.0])


def test_debt_priority_hand_trace(demo):
    # homogeneous floors 0.5, k=6: the first four rounds are forced by the
    # debt ordering (ties broken toward lower ids), independent of the oracle
    pool, oracle = demo
    uniform = WorkerPool(n=10, k=6, fairness=np.full(10, 0.5))
    ledger = DebtLedger.fresh(10)
    expected = [
        (0, 1, 2, 3, 4, 5),
        (0, 1, 6, 7, 8, 9),
        (2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 8, 9),
    ]
    for want in expected:
        assert fairdg_round(uniform, oracle, ledger) == want


def test_zero_floor_debt_rules(demo):
    pool, oracle = demo
    free = WorkerPool(n=10, k=6, fairness=np.zeros(10))
    greedy_set = dg_round(pool, oracle)

    # default rule: zero debt still counts as owed, so round one is the
    # lowest six ids and the greedy clique only emerges at round three
    ledger = DebtLedger.fresh(10)
    first = fairdg_round(free, oracle, ledger)
    assert first == (0, 1, 2, 3, 4, 5)
    fairdg_round(free, oracle, ledger)
    assert fairdg_round(free, oracle, ledger) == greedy_set

    # strict rule: nobody is owed at zero floors, pure greedy from the start
    ledger = DebtLedger.fresh(10)
    assert fairdg_round(free, oracle, ledger, strict_debt=True) == greedy_set


def test_round_query_budget(demo):
    pool, oracle = demo
    ledger = DebtLedger.fresh(10)
    budget = pool.k * pool.n
    for _ in range(30):
        oracle.reset_query_count()
        fairdg_round(pool, oracle, ledger)
        assert oracle.query_count <= budget


def test_greedy_baseline_on_the_demo(demo):
    pool, oracle = demo
    assert dg_round(pool, oracle) == (1, 2, 3, 5, 6, 7)


def test_greedy_matches_a_marginal_gain_reimplementation():
    rng = np.random.default_rng(15)
    for _ in range(5):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n))
        oracle = make_random_oracle(rng, n)
        pool = WorkerPool(n=n, k=k, fairness=np.zeros(n))
        # independent greedy: explicit marginal gains, lowest id on ties
        chosen = []
        for _ in range(k):
            gains = [
                (round(marginal_gain(oracle, chosen, u), 12), u)
                for u in range(n)
                if u not in chosen
            ]
            gains.sort(key=lambda g: (-g[0], g[1]))
            chosen.append(gains[0][1])
        assert dg_round(pool, oracle) == tuple(sorted(chosen))


def test_greedy_modular_is_top_k_by_weight():
    oracle = ModularOracle([0.2, 0.9, 0.1, 0.8, 0.5])
    pool = WorkerPool(n=5, k=3, fairness=np.zeros(5))
    assert dg_round(pool, oracle) == (1, 3, 4)


def test_greedy_full_ground_set():
    oracle = ModularOracle([1.0, 2.0])
    pool = WorkerPool(n=2, k=2, fairness=np.zeros(2))
    assert dg_round(pool, oracle) == (0, 1)


def test_round_robin_hand_example():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.5, 0.5]))
    selected = round_robin_policy(pool, 4)
    assert selected.tolist() == [[True, False], [True, False], [False, True], [False, True]]


def test_round_robin_pads_with_lowest_free_ids():
    pool = WorkerPool(n=4, k=2, fairness=np.zeros(4))
    assert round_robin_policy(pool, 3).tolist() == [[True, True, False, False]] * 3


def _round_robin_reference(pool, horizon):
    """The documented schedule, one round at a time: slot grid, then pad
    each short round with the lowest ids it does not hold yet."""
    n, k, t_total = pool.n, pool.k, horizon
    bounds = np.ceil(np.cumsum(pool.fairness) * t_total - 1e-9).astype(np.int64)
    bounds = np.clip(bounds, 0, k * t_total)
    counts = bounds - np.concatenate([[0], bounds[:-1]])
    grid = np.full((k, t_total), -1, dtype=np.int64)
    slot_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    slots = np.arange(slot_ids.size, dtype=np.int64)
    grid[slots // t_total, slots % t_total] = slot_ids
    rounds = []
    for t in range(t_total):
        column = grid[:, t]
        selected = set(int(u) for u in column[column >= 0])
        filler = 0
        while len(selected) < k:
            if filler not in selected:
                selected.add(filler)
            filler += 1
        rounds.append(tuple(sorted(selected)))
    return rounds


def test_round_robin_matches_the_per_round_reference():
    rng = np.random.default_rng(4242)
    for draw in range(240):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        horizon = int(rng.integers(1, 301))
        if draw % 4 == 0:
            floors = np.zeros(n)  # every round is padding
        elif draw % 4 == 1:
            # quarter-step floors put ceil() on exact integers
            floors = np.floor(make_random_floors(rng, n, k) * 4.0) / 4.0
        else:
            floors = make_random_floors(rng, n, k, load=float(rng.uniform(0.0, 1.0)))
        pool = WorkerPool(n=n, k=k, fairness=floors)
        selected = round_robin_policy(pool, horizon)
        assert selected.shape == (horizon, n)
        got = [tuple(np.flatnonzero(row).tolist()) for row in selected]
        assert got == _round_robin_reference(pool, horizon), (n, k, horizon, floors)


def test_round_robin_meets_floors_on_the_demo(demo):
    pool, _ = demo
    fractions = round_robin_policy(pool, 10_000).mean(axis=0)
    assert (fractions >= pool.fairness - 1e-4).all()


def test_round_robin_meets_floors_on_random_instances():
    rng = np.random.default_rng(37)
    horizon = 2000
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        fractions = round_robin_policy(pool, horizon).mean(axis=0)
        assert (fractions >= pool.fairness - 1.0 / horizon - 1e-12).all()


def test_round_robin_rounds_are_well_formed():
    pool = WorkerPool(n=5, k=3, fairness=np.array([0.9, 0.4, 0.4, 0.7, 0.2]))
    selected = round_robin_policy(pool, 97)
    assert selected.shape == (97, 5)
    assert selected.dtype == bool
    assert (selected.sum(axis=1) == 3).all()


def test_round_robin_errors():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.8, 0.8]))
    with pytest.raises(FeasibilityError):
        round_robin_policy(pool, 10)
    ok = WorkerPool(n=2, k=1, fairness=np.zeros(2))
    with pytest.raises(ValueError):
        round_robin_policy(ok, 0)
