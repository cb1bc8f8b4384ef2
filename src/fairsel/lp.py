"""Optimal stationary utility via linear programming.

The best time-average utility any fairness-respecting randomized stationary
policy can reach is the value of a small LP: pick a probability q_S for every
budget-size subset S, maximizing the expected utility sum q_S f(S) subject to
per-worker selection marginals sum_{S : u in S} q_S >= r_u and sum q_S = 1.
Restricting to sets of size exactly k loses nothing for a monotone utility
(padding a smaller support set never hurts), and keeps the variable count at
C(n, k).

Solved with a dense two-phase simplex under Bland's rule (no cycling). An
independent brute-force path (`brute_force_uopt`, scipy's HiGHS) validates it
on small instances.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError, SizeLimitError
from .oracles import UtilityOracle, WorkerPool

DEFAULT_SUBSET_CAP = 100_000
PIVOT_CAP = 1_000_000
_PIVOT_TOL = 1e-9
_PHASE1_TOL = 1e-8
# tableau rows per block of a pivot's update
_PIVOT_ROWS = 4


class SimplexTableau:
    """Dense two-phase simplex for min c.z subject to A z = b, z >= 0.

    Bland's rule picks both the entering column (smallest eligible index) and
    the leaving row (smallest basis index among minimum ratios), which rules
    out cycling; a pivot counter hard-caps runtime regardless. After
    ``solve()`` returns "optimal", ``solution``, ``objective`` and ``duals``
    describe the optimum. Rows found redundant in phase one are dropped and
    get a zero dual.
    """

    def __init__(self, a, b, c):
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        c = np.array(c, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
            raise ValueError("inconsistent LP dimensions")
        flip = b < 0.0
        a[flip] *= -1.0
        b[flip] *= -1.0
        self.a = a
        self.b = b
        self.c = c
        self.m, self.ncols = a.shape
        self.basis: list[int] = []
        self.pivots = 0
        self.status = "unsolved"
        self.solution: np.ndarray | None = None
        self.objective: float | None = None
        self.duals: np.ndarray | None = None

    def solve(self, pivot_cap: int = PIVOT_CAP) -> str:
        m, nc = self.m, self.ncols
        self._cap = int(pivot_cap)

        # phase one: minimize the sum of one artificial variable per row
        t = np.zeros((m + 1, nc + m + 1))
        t[:m, :nc] = self.a
        t[:m, nc : nc + m] = np.eye(m)
        t[:m, -1] = self.b
        t[m, :nc] = -self.a.sum(axis=0)
        t[m, -1] = -self.b.sum()
        basis = list(range(nc, nc + m))
        self._iterate(t, basis, limit_cols=nc + m)
        if -t[-1, -1] > _PHASE1_TOL:
            self.status = "infeasible"
            return self.status

        # drive leftover artificials out of the basis; drop redundant rows
        keep = list(range(m))
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] < nc:
                continue
            pivot_col = next(
                (j for j in range(nc) if abs(t[i, j]) > _PIVOT_TOL), None
            )
            if pivot_col is None:
                t = np.delete(t, i, axis=0)
                del basis[i]
                del keep[i]
            else:
                self._pivot(t, basis, i, pivot_col)

        # phase two: real objective over the original columns, in the same
        # tableau; the artificial columns ride along but may no longer enter
        obj = np.zeros(t.shape[1])
        obj[:nc] = self.c
        for i, bi in enumerate(basis):
            obj -= self.c[bi] * t[i]
        t[-1] = obj
        self._iterate(t, basis, limit_cols=nc)

        z = np.zeros(nc)
        for i, bi in enumerate(basis):
            z[bi] = t[i, -1]
        np.maximum(z, 0.0, out=z)  # absorb -1e-16 scale pivot residue
        self.solution = z
        self.objective = float(self.c @ z)
        duals = np.zeros(self.m)
        if keep:
            block = self.a[np.ix_(keep, basis)]
            try:
                duals[keep] = np.linalg.solve(block.T, self.c[basis])
            except np.linalg.LinAlgError:
                duals[keep] = np.linalg.lstsq(block.T, self.c[basis], rcond=None)[0]
        self.duals = duals
        self.status = "optimal"
        return self.status

    def _iterate(self, t, basis, limit_cols):
        m = t.shape[0] - 1
        while True:
            reduced = t[m, :limit_cols]
            eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
            if eligible.size == 0:
                return
            enter = int(eligible[0])  # Bland: smallest index
            col = t[:m, enter]
            rows = np.nonzero(col > _PIVOT_TOL)[0]
            if rows.size == 0:
                raise RuntimeError(
                    "LP unbounded; the stationary-policy LP is always bounded"
                )
            ratios = t[rows, -1] / col[rows]
            best = float(ratios.min())
            tied = rows[ratios <= best + 1e-12]
            leave = int(tied[np.argmin([basis[i] for i in tied])])
            self._pivot(t, basis, leave, enter)

    def _pivot(self, t, basis, row, col):
        self.pivots += 1
        if self.pivots > self._cap:
            raise RuntimeError(f"simplex exceeded the pivot cap ({self._cap})")
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        # t -= outer(factors, t[row]) a few rows at a time: the same products
        # and differences, without a tableau-sized temporary per pivot
        pivot = t[row].copy()
        for start in range(0, t.shape[0], _PIVOT_ROWS):
            rows = slice(start, start + _PIVOT_ROWS)
            t[rows] -= np.multiply.outer(factors[rows], pivot)
        basis[row] = col


@dataclass(frozen=True)
class LpSolution:
    """Optimal stationary distribution over budget-size subsets."""

    status: str  # "optimal" or "infeasible"
    u_opt: float
    subsets: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    subset_values: np.ndarray
    duals: np.ndarray | None  # one per constraint row: n fairness rows + the sum row

    @property
    def support(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return tuple(
            (s, float(p))
            for s, p in zip(self.subsets, self.probabilities)
            if p > 1e-10
        )

    def coverage(self, n: int) -> np.ndarray:
        """Per-worker selection marginal sum_{S : u in S} q_S."""
        out = np.zeros(n)
        for s, p in zip(self.subsets, self.probabilities):
            for u in s:
                out[u] += p
        return out


def solve_uopt(
    pool: WorkerPool,
    oracle: UtilityOracle,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> LpSolution:
    """Maximize expected utility over fairness-respecting distributions.

    Enumerates all C(n, k) budget-size subsets (capped), queries the oracle
    once per subset, and solves the resulting LP with the in-house simplex.
    Returns status "infeasible" exactly when the floors exceed the budget.
    """
    n, k = pool.n, pool.k
    count = math.comb(n, k)
    if count > subset_cap:
        raise SizeLimitError(
            f"C({n},{k}) = {count} subset variables exceed the cap {subset_cap}"
        )
    subsets = tuple(itertools.combinations(range(n), k))
    masks = np.zeros((count, n), dtype=bool)
    for row, s in enumerate(subsets):
        masks[row, list(s)] = True
    values = oracle.evaluate_many(masks)  # each subset utility queried exactly once

    # columns: one probability per subset, then one surplus per fairness row
    a = np.zeros((n + 1, count + n))
    a[:n, :count] = masks.T
    a[:n, count:] = -np.eye(n)
    a[n, :count] = 1.0
    b = np.append(pool.fairness, 1.0)
    c = np.concatenate([-values, np.zeros(n)])  # maximize = minimize the negation

    tableau = SimplexTableau(a, b, c)
    if tableau.solve() == "infeasible":
        return LpSolution(
            status="infeasible",
            u_opt=math.nan,
            subsets=subsets,
            probabilities=np.zeros(count),
            subset_values=values,
            duals=None,
        )

    q = tableau.solution[:count]
    solution = LpSolution(
        status="optimal",
        u_opt=float(values @ q),
        subsets=subsets,
        probabilities=q,
        subset_values=values,
        duals=tableau.duals,
    )
    total = float(q.sum())
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"distribution sums to {total!r}")
    if not (masks.T @ q >= pool.fairness - 1e-9).all():
        raise ContractError("fairness marginal violated")
    return solution


def brute_force_uopt(pool: WorkerPool, oracle: UtilityOracle) -> float:
    """Independent solver for the same LP, for validating the simplex path.

    Only intended for tiny instances (n <= 6, k <= 3); delegates to scipy's
    HiGHS, a completely separate implementation from SimplexTableau.
    Returns nan when infeasible.
    """
    from scipy.optimize import linprog

    n, k = pool.n, pool.k
    if n > 6 or k > 3:
        raise SizeLimitError(f"brute force capped at n<=6, k<=3; got n={n}, k={k}")
    subsets = list(itertools.combinations(range(n), k))
    masks = np.zeros((len(subsets), n), dtype=bool)
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
