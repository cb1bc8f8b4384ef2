"""Worker pools and submodular utility oracles.

An oracle answers value queries f(S) for subsets of a ground set of workers
0..n-1. Every set evaluated costs exactly one query, whether sets arrive one
at a time (``evaluate``) or as a batch (``evaluate_many``); batching exists
to amortize Python overhead, never to discount queries. The counter is
thread-safe. A WorkerPool holds only n, k and the fairness floors; each
oracle owns its own parameters, so the accuracy oracle alone holds the
per-worker sample counts.
"""
from __future__ import annotations

import threading
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import FeasibilityError, SizeLimitError

# exhaustive structure checks enumerate all 2^n subsets
CHECK_LIMIT = 12
# evaluate_many hands the oracle at most this many rows at a time, so its
# per-row temporaries (one float per covered item, say) stay a few MB even
# on a 2e4-round trace
EVAL_BLOCK = 4096
# float slack on a sum of floors against the budget
SUM_TOL = 1e-12


@dataclass(frozen=True)
class WorkerPool:
    """Ground set description: n workers (ids 0..n-1), per-round budget k and
    per-worker fairness floors r_u."""

    n: int
    k: int
    fairness: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one worker, got n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"budget k={self.k} outside 1..{self.n}")
        # a copy: freezing it below leaves the caller's array writable
        r = np.array(self.fairness, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"fairness vector has shape {r.shape}, expected ({self.n},)")
        # written so that a NaN fails the check too
        if not ((r >= 0.0) & (r <= 1.0)).all():
            raise ValueError("fairness floors must lie in [0, 1]")
        r.flags.writeable = False
        object.__setattr__(self, "fairness", r)

    def is_feasible(self) -> bool:
        """True iff the fairness floors fit in the budget: sum(r) <= k."""
        return float(self.fairness.sum()) <= self.k + SUM_TOL

    def require_feasible(self) -> None:
        """Raise FeasibilityError unless the floors fit in the budget."""
        if not self.is_feasible():
            raise FeasibilityError(
                f"floors sum to {self.fairness.sum():.6f} > budget k={self.k}"
            )


class UtilityOracle(ABC):
    """Monotone-submodular set function with a thread-safe query counter."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("oracle needs a non-empty ground set")
        self._n = int(n)
        self._lock = threading.Lock()
        self._queries = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._queries

    def _charge(self, amount: int) -> None:
        with self._lock:
            self._queries += amount

    def evaluate(self, s: Iterable[int]) -> float:
        """f(s). Costs one query."""
        mask = self._mask_of(s)
        self._charge(1)
        return float(self._values(mask[None, :])[0])

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        """f over a batch of sets given as an (m, n) boolean matrix.

        Costs m queries (one per row). Rows are evaluated in blocks of
        EVAL_BLOCK; each row's value does not depend on the blocking."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self._n:
            raise ValueError(f"mask batch must have shape (m, {self._n})")
        m = masks.shape[0]
        self._charge(m)
        if m <= EVAL_BLOCK:
            return self._values(masks)
        out = np.empty(m)
        for start in range(0, m, EVAL_BLOCK):
            out[start : start + EVAL_BLOCK] = self._values(masks[start : start + EVAL_BLOCK])
        return out

    def _mask_of(self, s: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self._n, dtype=bool)
        for u in s:
            v = int(u)
            if not 0 <= v < self._n:
                raise ValueError(f"worker id {v} outside 0..{self._n - 1}")
            mask[v] = True
        return mask

    @abstractmethod
    def _values(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized f over an (m, n) boolean batch; no query accounting here."""


class AccuracyOracle(UtilityOracle):
    """Crowd-accuracy utility of a worker set.

    f(S) = (1 - min_error) - scale * (sum_{u in S} L_u) ** exponent for
    non-empty S, and f(empty) = 0. With scale >= 0 and exponent < 0 this is
    monotone with diminishing returns in the pooled sample count. Values that
    would fall below zero are clamped to zero; the constructor warns once if
    the parameters can reach the clamp on this pool.
    """

    def __init__(
        self,
        sample_counts: Sequence[float],
        min_error: float = 0.05,
        scale: float = 0.5,
        exponent: float = -0.2,
    ):
        counts = np.asarray(sample_counts, dtype=float)
        super().__init__(counts.size)
        if not ((counts > 0.0) & (counts < np.inf)).all():
            raise ValueError("sample counts must be positive and finite")
        if not 0.0 <= min_error < 1.0:
            raise ValueError(f"min_error must lie in [0, 1), got {min_error}")
        if not 0.0 <= scale < np.inf:
            raise ValueError(f"scale must be non-negative and finite, got {scale}")
        if not -np.inf < exponent < 0.0:
            raise ValueError(f"exponent must be negative and finite, got {exponent}")
        self.sample_counts = counts
        self.min_error = float(min_error)
        self.scale = float(scale)
        self.exponent = float(exponent)
        worst = (1.0 - self.min_error) - self.scale * counts.min() ** self.exponent
        if worst < 0.0:
            warnings.warn(
                "accuracy parameters go negative on the smallest singleton; "
                "values are clamped at zero",
                RuntimeWarning,
                stacklevel=2,
            )

    def _values(self, masks: np.ndarray) -> np.ndarray:
        totals = masks.astype(float) @ self.sample_counts
        out = np.zeros(masks.shape[0])
        nonempty = totals > 0.0
        out[nonempty] = (1.0 - self.min_error) - self.scale * totals[nonempty] ** self.exponent
        np.maximum(out, 0.0, out=out)
        return out


class CoverageOracle(UtilityOracle):
    """Weighted coverage utility over a bipartite worker/item structure.

    Worker u covers the items in ``covers[u]``; f(S) is the total weight of
    items covered by at least one member of S.
    """

    def __init__(self, n: int, item_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        super().__init__(n)
        weights = np.asarray(item_weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError("item_weights must be a vector")
        if not ((weights >= 0.0) & (weights < np.inf)).all():
            raise ValueError("item weights must be non-negative and finite")
        if len(covers) != n:
            raise ValueError(f"covers must list items for each of the {n} workers")
        incidence = np.zeros((n, weights.size), dtype=bool)
        for u, items in enumerate(covers):
            for item in items:
                idx = int(item)
                if not 0 <= idx < weights.size:
                    raise ValueError(f"item id {idx} outside 0..{weights.size - 1}")
                incidence[u, idx] = True
        self.item_weights = weights
        self.incidence = incidence

    def _values(self, masks: np.ndarray) -> np.ndarray:
        covered = masks @ self.incidence  # (m, items) counts
        return (covered > 0) @ self.item_weights


class ModularOracle(UtilityOracle):
    """Additive utility f(S) = sum of per-worker weights (all >= 0)."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        super().__init__(w.size)
        if not ((w >= 0.0) & (w < np.inf)).all():
            raise ValueError("modular weights must be non-negative and finite")
        self.weights = w

    def _values(self, masks: np.ndarray) -> np.ndarray:
        return masks.astype(float) @ self.weights


def all_subset_masks(n: int) -> np.ndarray:
    """All 2^n subsets as a boolean matrix; row index is the bitmask."""
    idx = np.arange(1 << n, dtype=np.int64)
    return (idx[:, None] >> np.arange(n)) & 1 > 0


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the exhaustive monotonicity/submodularity check."""

    n: int
    monotone: bool
    submodular: bool
    # witness of a monotonicity failure: (S, u) with f(S + u) < f(S)
    monotone_witness: tuple[tuple[int, ...], int] | None = None
    # witness of a submodularity failure: (A, B, u) with A subset of B, u not
    # in B, and gain of u at A strictly below its gain at B
    submodular_witness: tuple[tuple[int, ...], tuple[int, ...], int] | None = None

    @property
    def ok(self) -> bool:
        return self.monotone and self.submodular


def check_submodular_monotone(
    oracle: UtilityOracle, pool: WorkerPool | None = None, tol: float = 1e-12
) -> StructureReport:
    """Exhaustively verify monotonicity and submodularity (n <= 12 only).

    Submodularity is checked through the equivalent local condition
    f(M+u) + f(M+v) >= f(M+u+v) + f(M) for all M and u != v outside M; a
    violation is translated back to a diminishing-returns witness (A, B, u).
    """
    n = oracle.n
    if pool is not None and pool.n != n:
        raise ValueError(f"pool has {pool.n} workers but oracle has {n}")
    if n > CHECK_LIMIT:
        raise SizeLimitError(
            f"exhaustive structure check is capped at n={CHECK_LIMIT}, got n={n}"
        )
    values = oracle.evaluate_many(all_subset_masks(n))
    idx = np.arange(1 << n, dtype=np.int64)

    monotone = True
    monotone_witness = None
    for u in range(n):
        bit = 1 << u
        without = idx[(idx & bit) == 0]
        bad = np.nonzero(values[without | bit] < values[without] - tol)[0]
        if bad.size:
            mask = int(without[bad[0]])
            monotone = False
            monotone_witness = (_bits_to_ids(mask, n), u)
            break

    submodular = True
    submodular_witness = None
    for u in range(n):
        if not submodular:
            break
        for v in range(u + 1, n):
            bu, bv = 1 << u, 1 << v
            base = idx[(idx & (bu | bv)) == 0]
            lhs = values[base | bu] + values[base | bv]
            rhs = values[base | (bu | bv)] + values[base]
            bad = np.nonzero(lhs < rhs - tol)[0]
            if bad.size:
                mask = int(base[bad[0]])
                submodular = False
                submodular_witness = (
                    _bits_to_ids(mask, n),
                    _bits_to_ids(mask | bv, n),
                    u,
                )
                break

    return StructureReport(
        n=n,
        monotone=monotone,
        submodular=submodular,
        monotone_witness=monotone_witness,
        submodular_witness=submodular_witness,
    )


def _bits_to_ids(mask: int, n: int) -> tuple[int, ...]:
    return tuple(u for u in range(n) if mask >> u & 1)
