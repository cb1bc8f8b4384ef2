"""Fairness polytope and linear maximization over it.

The feasible region is the box-with-budget
P = { x : r_u <= x_u <= 1 for all u, sum(x) <= k }, which is non-empty
exactly when sum(r) <= k. Maximizing a non-negative linear objective over P
is water filling: start every coordinate at its floor, then pour the leftover
budget into coordinates in order of decreasing weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ContractError, FeasibilityError, FractionalPoint
from .oracles import WorkerPool

SUM_TOL = 1e-12


@dataclass(frozen=True)
class FairPolytope:
    """Floors r in [0,1]^n plus a budget k on the coordinate sum."""

    fairness: np.ndarray
    k: int

    def __post_init__(self):
        r = np.asarray(self.fairness, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("fairness floors must form a non-empty vector")
        if r.min() < 0.0 or r.max() > 1.0:
            raise ValueError("fairness floors must lie in [0, 1]")
        if not 1 <= self.k <= r.size:
            raise ValueError(f"budget k={self.k} outside 1..{r.size}")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "fairness", r)

    @classmethod
    def from_pool(cls, pool: WorkerPool) -> "FairPolytope":
        return cls(fairness=pool.fairness, k=pool.k)

    @property
    def n(self) -> int:
        return self.fairness.size

    def is_feasible(self) -> bool:
        return float(self.fairness.sum()) <= self.k + SUM_TOL

    def contains(self, y: FractionalPoint | Iterable[float], tol: float = 1e-9) -> bool:
        coords = FractionalPoint.coerce(y).coords
        if coords.size != self.n:
            raise ValueError(f"point has {coords.size} coordinates, expected {self.n}")
        return bool(
            (coords >= self.fairness - tol).all() and coords.sum() <= self.k + tol
        )

    def membership_slack(self, y: FractionalPoint | Iterable[float]) -> float:
        """Largest constraint violation (0 when the point is inside)."""
        coords = FractionalPoint.coerce(y).coords
        floor_gap = float((self.fairness - coords).max())
        budget_gap = float(coords.sum() - self.k)
        return max(floor_gap, budget_gap, 0.0)


def is_feasible(fairness: Iterable[float], k: int) -> bool:
    """True iff floors summing to at most k, i.e. the polytope is non-empty."""
    return FairPolytope(np.asarray(list(fairness), dtype=float), k).is_feasible()


def maximize_linear(
    polytope: FairPolytope, weights: Iterable[float]
) -> FractionalPoint:
    """argmax_{x in P} w.x for non-negative w, by water filling.

    Ties in the weights are broken toward the smaller worker id, so the
    output is deterministic. The returned point always sums to exactly k
    (it is a vertex of P with the budget tight).
    """
    if not polytope.is_feasible():
        raise FeasibilityError(
            f"floors sum to {polytope.fairness.sum():.6f} > budget k={polytope.k}"
        )
    w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                   dtype=float)
    if w.shape != (polytope.n,):
        raise ValueError(f"weight vector has shape {w.shape}, expected ({polytope.n},)")
    if w.min() < 0.0:
        raise ContractError("weights must be non-negative")

    x = polytope.fairness.copy()
    budget = float(polytope.k) - float(x.sum())
    # descending weight, ascending id on ties
    order = np.lexsort((np.arange(polytope.n), -w))
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
    drift = float(polytope.k) - float(x.sum())
    if abs(drift) > SUM_TOL and last is not None:
        x[last] = min(max(x[last] + drift, polytope.fairness[last]), 1.0)
    point = FractionalPoint(x)
    if abs(point.sum() - polytope.k) > 1e-9:
        raise ContractError("water filling missed the budget")
    return point
