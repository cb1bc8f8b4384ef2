"""Discrete per-round schedulers: debt-driven fair selection and baselines.

The fair scheduler tracks, for every worker, the debt r_u * t - N_u(t-1)
(how far behind its fairness floor the worker is at round t). Workers with
non-negative debt are owed a selection; if they fit in the budget the rest
of the round is filled greedily by marginal utility, otherwise the k most
indebted are taken. The debt rule keeps every homogeneous-floor instance
within one selection of its target at all times.

The round-robin policy is the constructive half of the feasibility argument:
whenever sum(r) <= k a deterministic slot schedule meets every floor up to
an additive 1/T.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ContractError
from .oracles import UtilityOracle, WorkerPool


@dataclass
class DebtLedger:
    """Selection counts so far and the index of the next round (1-based)."""

    counts: np.ndarray
    next_round: int = 1

    @classmethod
    def fresh(cls, n: int) -> "DebtLedger":
        return cls(counts=np.zeros(n, dtype=np.int64))

    def debts(self, fairness: np.ndarray) -> np.ndarray:
        """r_u * t - N_u(t-1) for the upcoming round t."""
        return fairness * self.next_round - self.counts

    def record(self, selected: Iterable[int]) -> None:
        idx = list(selected)
        self.counts[idx] += 1
        self.next_round += 1


def fairdg_round(
    pool: WorkerPool,
    oracle: UtilityOracle,
    ledger: DebtLedger,
    strict_debt: bool = False,
) -> tuple[int, ...]:
    """Select one round's workers by debt priority and record it.

    Workers whose debt is >= 0 (or > 0 with ``strict_debt``) are owed a spot.
    If fewer than k are owed, the remainder is filled greedily by marginal
    utility gain (ties to the smaller id); if more, the k largest debts win
    (ties to the smaller id). Costs at most k*n oracle queries.

    The verbatim >= 0 rule means a floor of zero still grants round-one
    credit (debt 0 counts as owed); ``strict_debt`` switches to > 0, under
    which zero-floor workers are never owed and the scheduler degenerates to
    plain greedy when all floors are zero.
    """
    r = pool.fairness
    debts = ledger.debts(r)
    owed = debts > 0.0 if strict_debt else debts >= 0.0
    owed_ids = np.nonzero(owed)[0]
    k = pool.k
    if owed_ids.size >= k:
        order = np.lexsort((np.arange(pool.n), -debts))
        selected = tuple(sorted(int(u) for u in order[:k]))
    else:
        selected = _greedy_fill(pool, oracle, set(int(u) for u in owed_ids))
    ledger.record(selected)
    return selected


def dg_round(pool: WorkerPool, oracle: UtilityOracle) -> tuple[int, ...]:
    """Plain greedy: k workers by marginal utility, ignoring fairness."""
    return _greedy_fill(pool, oracle, set())


def _greedy_fill(pool: WorkerPool, oracle: UtilityOracle, base: set[int]) -> tuple[int, ...]:
    # argmax of the marginal gain equals argmax of f(B + u) since f(B) is a
    # constant within an iteration; evaluating only the grown sets keeps the
    # round within the k*n query budget
    chosen = set(base)
    mask = np.zeros(pool.n, dtype=bool)
    mask[list(chosen)] = True
    while len(chosen) < pool.k:
        candidates = [u for u in range(pool.n) if u not in chosen]
        batch = np.repeat(mask[None, :], len(candidates), axis=0)
        batch[np.arange(len(candidates)), candidates] = True
        vals = oracle.evaluate_many(batch)
        best = candidates[int(np.argmax(vals))]  # argmax takes the first max: lowest id
        chosen.add(best)
        mask[best] = True
    return tuple(sorted(chosen))


def round_robin_policy(pool: WorkerPool, horizon: int) -> np.ndarray:
    """Deterministic (T, n) selection matrix meeting every floor up to 1/T.

    Lay out k*T selection slots, ordered round-first within each of the k
    channels (round 1 channel 1, ..., round T channel 1, round 1 channel 2,
    ...). Worker i fills consecutive slots up to the ceil(cumsum(r)*T)-th,
    which gives it at least ceil(r_i*T) - 1 distinct rounds. Rounds left
    short are padded with the lowest-id workers not already selected in them,
    so every row holds exactly k workers; the column means are the
    per-worker selection fractions.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    pool.require_feasible()
    n, k, t_total = pool.n, pool.k, int(horizon)
    cum = np.cumsum(pool.fairness) * t_total
    # tiny negative guard so float noise on exact integers cannot push the
    # ceiling (and the slot count) one past the budget
    bounds = np.ceil(cum - 1e-9).astype(np.int64)
    bounds = np.clip(bounds, 0, k * t_total)
    starts = np.concatenate([[0], bounds[:-1]])
    counts = bounds - starts
    if (counts < 0).any() or (counts > t_total).any():
        raise ContractError("a worker's slot count falls outside 0..T")

    # a worker's slots are consecutive and at most T, so they land in
    # distinct rounds and no round gets more than one slot per channel
    selected = np.zeros((t_total, n), dtype=bool)
    slot_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    selected[np.arange(slot_ids.size) % t_total, slot_ids] = True

    free = ~selected
    short = k - selected.sum(axis=1)
    selected |= free & (np.cumsum(free, axis=1) <= short[:, None])
    return selected
