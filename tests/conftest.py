"""Shared fixtures and random-instance generators for the test suite.

Every randomized test draws from an explicitly seeded generator, so the whole
suite is deterministic; "random" here means "varied, frozen by seed".
"""
import itertools
import math

import numpy as np
import pytest

from fairsel import (
    AccuracyOracle,
    CoverageOracle,
    ModularOracle,
    WorkerPool,
    faircg1_fractional,
    faircg2_fractional,
    solve_uopt,
)
from fairsel.multilinear import ExtensionEvaluator
from fairsel.oracles import all_subset_masks
from fairsel.presets import demo_oracle, demo_pool

ORACLE_KINDS = ("accuracy", "coverage", "modular")


def make_random_oracle(rng, n, kind=None):
    """One of the three bundled oracle families with benign random parameters."""
    kind = kind or ORACLE_KINDS[int(rng.integers(len(ORACLE_KINDS)))]
    if kind == "accuracy":
        # counts >= 50 keep every singleton value positive (no clamp warning)
        return AccuracyOracle(
            sample_counts=rng.uniform(50.0, 1200.0, n),
            min_error=float(rng.uniform(0.02, 0.2)),
            scale=float(rng.uniform(0.2, 0.6)),
            exponent=float(-rng.uniform(0.1, 0.5)),
        )
    if kind == "coverage":
        items = int(rng.integers(n, 3 * n + 1))
        covers = [
            rng.choice(items, size=int(rng.integers(1, max(items // 2, 1) + 1)), replace=False)
            for _ in range(n)
        ]
        return CoverageOracle(n, rng.uniform(0.1, 2.0, items), covers)
    return ModularOracle(rng.uniform(0.0, 1.0, n))


def make_random_floors(rng, n, k, load=None):
    """Feasible floors: random profile scaled to use `load` of the budget."""
    raw = rng.uniform(0.05, 1.0, n)
    budget = k * (load if load is not None else float(rng.uniform(0.2, 0.95)))
    r = raw * (budget / raw.sum())
    return np.minimum(r, 1.0)  # clipping only lowers the sum, stays feasible


def make_random_instance(rng, n_range=(4, 9), k_range=(2, 4), kind=None):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    k = int(rng.integers(k_range[0], min(k_range[1], n - 1) + 1)) if n > 2 else 1
    oracle = make_random_oracle(rng, n, kind=kind)
    pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
    return pool, oracle


def brute_force_uopt(pool, oracle):
    """U_opt from scipy's HiGHS, the suite's one independent LP reference.

    Builds the stationary LP from scratch (one column per size-k subset, a
    floor row per worker, the sum-to-one row) and shares no code with
    fairsel.lp. Returns nan when the LP is infeasible.
    """
    from scipy.optimize import linprog

    subsets = list(itertools.combinations(range(pool.n), pool.k))
    masks = np.zeros((len(subsets), pool.n), dtype=bool)
    for row, s in enumerate(subsets):
        masks[row, list(s)] = True
    values = oracle.evaluate_many(masks)
    res = linprog(
        c=-values,
        A_ub=-masks.T.astype(float),
        b_ub=-pool.fairness,
        A_eq=np.ones((1, len(subsets))),
        b_eq=[1.0],
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        return math.nan
    return float(-res.fun)


def water_fill_brute(fairness, k, weights):
    """Independent maximizer of w.x over {r <= x <= 1, sum x <= k}.

    Enumerates the vertex candidates: a subset at 1, the rest at the floor,
    plus optionally one coordinate absorbing the leftover budget. Returns the
    best objective value.
    """
    r = np.asarray(fairness, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = r.size
    best = -np.inf
    for mask in range(1 << n):
        ones = [(mask >> u) & 1 == 1 for u in range(n)]
        x0 = np.where(ones, 1.0, r)
        if x0.sum() <= k + 1e-12:
            best = max(best, float(w @ x0))
        for j in range(n):
            if ones[j]:
                continue
            partial = k - (x0.sum() - r[j])
            if r[j] - 1e-12 <= partial <= 1.0 + 1e-12:
                x = x0.copy()
                x[j] = min(max(partial, r[j]), 1.0)
                best = max(best, float(w @ x))
    return best


def exact_mean_sigma(oracle, y):
    """True (F(y), sigma of f under independent inclusion) from the 2^n table."""
    masks = all_subset_masks(oracle.n)
    table = oracle.evaluate_many(masks)
    probs = np.prod(np.where(masks, np.asarray(y, dtype=float), 1.0 - np.asarray(y)), axis=1)
    mean = float(probs @ table)
    var = float(probs @ (table - mean) ** 2)
    return mean, float(np.sqrt(max(var, 0.0)))


@pytest.fixture(scope="session")
def demo():
    """The bundled ten-worker instance at beta = 0.42."""
    return demo_pool(0.42), demo_oracle()


@pytest.fixture(scope="session")
def certificate_instances():
    """Twenty small random instances with both greedy variants solved exactly.

    Shared by the lower-bound certificate tests and the per-step gain audit;
    everything is exact-mode, so the numbers are reproducible to float noise.
    """
    out = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        pool, oracle = make_random_instance(rng)
        lp = solve_uopt(pool, oracle)
        assert lp.status == "optimal"
        evaluator = ExtensionEvaluator(oracle)
        res1 = faircg1_fractional(pool, evaluator)
        res2 = faircg2_fractional(pool, evaluator)
        f_of_r = evaluator.value(pool.fairness)
        out.append(
            {
                "pool": pool,
                "oracle": oracle,
                "u_opt": lp.u_opt,
                "f_of_r": f_of_r,
                "res1": res1,
                "res2": res2,
            }
        )
    return out
