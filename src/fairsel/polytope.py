"""Water-filling linear maximization over a pool's fairness polytope.

A pool's floors r and budget k span the box-with-budget
P = { x : r_u <= x_u <= 1 for all u, sum(x) <= k }, which is non-empty
exactly when sum(r) <= k. Maximizing a non-negative linear objective over P
is water filling: start every coordinate at its floor, then pour the leftover
budget into coordinates in order of decreasing weight.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import ContractError, as_vector
from .oracles import SUM_TOL, WorkerPool


def maximize_linear(pool: WorkerPool, weights: Iterable[float]) -> np.ndarray:
    """argmax_{x in P} w.x for non-negative w, by water filling.

    Ties in the weights are broken toward the smaller worker id, so the
    output is deterministic. The returned vector is the water-filled point
    as computed, with no snapping, so every coordinate stays within
    [r_u, 1]; it sums to k (a vertex of P with the budget tight).
    """
    pool.require_feasible()
    w = as_vector(weights, pool.n, "weight")
    if not ((w >= 0.0) & (w < np.inf)).all():
        raise ContractError("weights must be non-negative and finite")

    x = pool.fairness.copy()
    budget = float(pool.k) - float(x.sum())
    # descending weight, ascending id on ties
    order = np.lexsort((np.arange(pool.n), -w))
    last = None
    for u in order:
        if budget <= 0.0:
            break
        add = min(1.0 - x[u], budget)
        if add > 0.0:
            x[u] += add
            budget -= add
            last = u
    # total capacity n - sum(r) >= k - sum(r), so the budget always empties;
    # mop up float drift on the last touched coordinate
    drift = float(pool.k) - float(x.sum())
    if abs(drift) > SUM_TOL and last is not None:
        x[last] = min(max(x[last] + drift, pool.fairness[last]), 1.0)
    if abs(float(x.sum()) - pool.k) > 1e-9:
        raise ContractError("water filling missed the budget")
    return x
