"""Optimal stationary utility via linear programming.

The best time-average utility any fairness-respecting randomized stationary
policy can reach is the value of a small LP: pick a probability q_S for every
budget-size subset S, maximizing the expected utility sum q_S f(S) subject to
per-worker selection marginals sum_{S : u in S} q_S >= r_u and sum q_S = 1.
Restricting to sets of size exactly k loses nothing for a monotone utility
(padding a smaller support set never hurts), and keeps the variable count at
C(n, k).

Solved with a dense two-phase simplex under Bland's rule (no cycling), in
numpy alone: the subsets are held once, as a (C(n, k), n) bool matrix, and
the simplex tableau is the only copy of the constraint matrix. The duals are
read off the final tableau. The test suite checks the solver against scipy's
HiGHS; the library never imports scipy.
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
# subsets with probability above this make up a solution's support
SUPPORT_TOL = 1e-10


class SimplexTableau:
    """Dense two-phase simplex for min c.z subject to A z = b, z >= 0.

    The constructor builds the phase-one tableau, which is the only copy of
    A and b kept; rows with b < 0 enter it negated. Bland's rule picks both
    the entering column (smallest eligible index) and the leaving row
    (smallest basis index among minimum ratios), which rules out cycling;
    ``PIVOT_CAP`` hard-caps runtime regardless. After ``solve()`` returns
    "optimal", ``solution``, ``objective`` and ``duals`` describe the optimum.

    The duals are read from the final tableau: minus the objective row at
    each row's artificial column, times the sign the row entered with, so
    they belong to A z = b as given. Rows found redundant in phase one are
    dropped from the tableau, but their artificial columns stay; a dropped
    row's dual is read the same way, which makes it the multiple of that row
    the eliminations carried into the kept rows (zero if it never served as
    a pivot row). Over every row, dropped ones included, duals.b equals the
    objective and c - duals.A >= 0 up to rounding.
    """

    def __init__(self, a, b, c):
        a = np.asarray(a, dtype=float)
        b = np.array(b, dtype=float)
        c = np.array(c, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
            raise ValueError("inconsistent LP dimensions")
        m, nc = a.shape
        self._sign = np.where(b < 0.0, -1.0, 1.0)
        b *= self._sign

        # phase one: minimize the sum of one artificial variable per row
        t = np.zeros((m + 1, nc + m + 1))
        np.multiply(a, self._sign[:, None], out=t[:m, :nc])
        t[:m, nc : nc + m] = np.eye(m)
        t[:m, -1] = b
        t[m, :nc] = -t[:m, :nc].sum(axis=0)
        t[m, -1] = -b.sum()
        self._t = t
        self.c = c
        self.m, self.ncols = m, nc
        self.pivots = 0
        self.status = "unsolved"
        self.solution: np.ndarray | None = None
        self.objective: float | None = None
        self.duals: np.ndarray | None = None

    def solve(self) -> str:
        """Run both phases on the tableau; a second call returns the status."""
        t, self._t = self._t, None
        if t is None:
            return self.status
        m, nc = self.m, self.ncols
        basis = list(range(nc, nc + m))
        self._iterate(t, basis, limit_cols=nc + m)
        if -t[-1, -1] > _PHASE1_TOL:
            self.status = "infeasible"
            return self.status

        # drive leftover artificials out of the basis; drop redundant rows
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] < nc:
                continue
            pivot_col = next(
                (j for j in range(nc) if abs(t[i, j]) > _PIVOT_TOL), None
            )
            if pivot_col is None:
                t = np.delete(t, i, axis=0)
                del basis[i]
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
        self.duals = -t[-1, nc : nc + m] * self._sign
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
        if self.pivots > PIVOT_CAP:
            raise RuntimeError(f"simplex exceeded the pivot cap ({PIVOT_CAP})")
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
    subsets: np.ndarray  # read-only (C(n, k), n) bool, in itertools.combinations order
    probabilities: np.ndarray
    subset_values: np.ndarray
    duals: np.ndarray | None  # one per constraint row: n fairness rows + the sum row

    @property
    def support(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """(worker ids, probability) for every subset above SUPPORT_TOL."""
        keep = np.flatnonzero(self.probabilities > SUPPORT_TOL)
        return tuple(
            (tuple(np.flatnonzero(self.subsets[i]).tolist()), float(self.probabilities[i]))
            for i in keep
        )


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
    # the subsets, held once: one bool row each, in combinations order
    masks = np.zeros((count, n), dtype=bool)
    masks[
        np.repeat(np.arange(count), k),
        np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.intp,
            count=count * k,
        ),
    ] = True
    masks.flags.writeable = False
    values = oracle.evaluate_many(masks)  # each subset utility queried exactly once

    # columns: one probability per subset, then one surplus per fairness row;
    # rows: the n fairness floors, then the sum to one. The tableau keeps the
    # only copy of this matrix.
    tableau = SimplexTableau(
        np.block([[masks.T, -np.eye(n)], [np.ones((1, count)), np.zeros((1, n))]]),
        np.append(pool.fairness, 1.0),
        np.concatenate([-values, np.zeros(n)]),  # maximize = minimize the negation
    )
    if tableau.solve() == "infeasible":
        return LpSolution(
            status="infeasible",
            u_opt=math.nan,
            subsets=masks,
            probabilities=np.zeros(count),
            subset_values=values,
            duals=None,
        )

    q = tableau.solution[:count]
    solution = LpSolution(
        status="optimal",
        u_opt=float(values @ q),
        subsets=masks,
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
