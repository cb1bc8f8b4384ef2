"""Multilinear relaxation of a set utility and its marginal weights.

F(y) is the expected utility of the random set that includes each worker u
independently with probability y_u. ``ExtensionEvaluator`` is the one entry
point: it binds an oracle to an ``ExtensionEstimator`` (mode and sample
count) and answers F(y), its standard error, and the marginal weights.

Exact evaluation enumerates all 2^n subsets once per evaluator and is what
mode "auto" picks up to n = EXACT_LIMIT; beyond that a Monte Carlo estimate
averages f over sampled sets. Samples are drawn in chunks of DEFAULT_CHUNK
rows, chunk c of stream s from derive_rng(seed, _MC_STREAM, s, c), and summed
in chunk order, so a given (seed, samples, stream) is bit-reproducible.

Marginal weights are w_u = F(y with y_u forced to 1) - F(y) = (1 - y_u) dF/dy_u.
Exact mode has one O(2^n) kernel, a reverse-mode contraction of the table: a
forward pass contracts one worker's bit at a time with (1 - y_u, y_u),
keeping each partial table, and its last partial is F(y). For the weights a
backward pass dots each partial table's difference along worker u's bit with
the Kronecker product of the remaining (1 - y_v, y_v). Both sides of that
difference are the same sums in the same order, so for a monotone utility no
weight rounds below zero, and a weight is exactly 0.0 where y_u = 1. The
Monte Carlo forced and baseline evaluations share the same sampled sets
(common random numbers), which makes every per-sample difference
non-negative for a monotone utility, cuts the variance sharply, and
re-queries only the rows whose set changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import FractionalPoint, SizeLimitError, derive_rng
from .oracles import UtilityOracle, all_subset_masks

EXACT_LIMIT = 15
DEFAULT_CHUNK = 4096
ESTIMATOR_MODES = ("auto", "exact", "monte_carlo")
# stream tag separating estimator draws from every other consumer of a seed
_MC_STREAM = 7


@dataclass(frozen=True)
class ExtensionEstimator:
    """How to evaluate the extension.

    mode: "exact", "monte_carlo", or "auto" (exact when n <= EXACT_LIMIT).
    samples: Monte Carlo sample count; default n**5.
    seed: master seed for every draw this estimator makes.
    """

    mode: str = "auto"
    samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ESTIMATOR_MODES:
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")

    def resolve_mode(self, n: int) -> str:
        if self.mode == "auto":
            return "exact" if n <= EXACT_LIMIT else "monte_carlo"
        return self.mode

    def sample_count(self, n: int) -> int:
        return self.samples if self.samples is not None else n**5


class ExtensionEvaluator:
    """Binds an oracle to estimator settings; caches the exact subset table.

    In exact mode the 2^n utility table is built once (2^n queries) and every
    later evaluation is one contraction of it, so one evaluator shared by a
    whole run pays for the table once.
    """

    def __init__(self, oracle: UtilityOracle, estimator: ExtensionEstimator | None = None):
        self.oracle = oracle
        self.estimator = estimator or ExtensionEstimator()
        self.mode = self.estimator.resolve_mode(oracle.n)
        if self.mode == "exact" and oracle.n > EXACT_LIMIT:
            raise SizeLimitError(
                f"exact extension is capped at n={EXACT_LIMIT}, got n={oracle.n}; "
                "use the monte_carlo mode"
            )
        self._table: np.ndarray | None = None

    def value(self, y, stream: int = 0) -> float:
        return self.value_with_stderr(y, stream=stream)[0]

    def value_with_stderr(self, y, stream: int = 0) -> tuple[float, float]:
        """(F(y), standard error); the error is 0.0 in exact mode.

        ``stream`` separates the draws of repeated calls under one seed
        (continuous-greedy steps pass their step index).
        """
        coords = self._point(y).coords
        if self.mode == "exact":
            return float(self._contract(coords)[-1][0]), 0.0
        return self._value_mc(coords, stream)

    def weights(self, y, stream: int = 0) -> tuple[np.ndarray, float]:
        """(w, F(y)), with w_u = F(y forced at u) - F(y).

        Both modes compute the baseline F(y) on the way to the weights, so it
        comes with them at no extra cost.
        """
        coords = self._point(y).coords
        if self.mode == "exact":
            return self._weights_exact(coords)
        return self._weights_mc(coords, stream)

    def _point(self, y) -> FractionalPoint:
        point = FractionalPoint.coerce(y)
        if point.n != self.oracle.n:
            raise ValueError(
                f"point has {point.n} coordinates but oracle has {self.oracle.n}"
            )
        return point

    def _contract(self, coords: np.ndarray) -> list[np.ndarray]:
        """The forward pass: partials[u] is the table with workers 0..u-1
        contracted away, so partials[n] holds F(y) alone. A row index is a
        bitmask, so worker u's bit is the last axis of partials[u]."""
        if self._table is None:
            self._table = self.oracle.evaluate_many(all_subset_masks(self.oracle.n))
        partials = [self._table]
        for y in coords:
            pairs = partials[-1].reshape(-1, 2)
            partials.append(pairs[:, 0] * (1.0 - y) + pairs[:, 1] * y)
        return partials

    def _weights_exact(self, coords: np.ndarray) -> tuple[np.ndarray, float]:
        partials = self._contract(coords)
        n = coords.size
        # backward: tail is the Kronecker product of (1 - y_v, y_v) over v > u
        grad = np.empty(n)
        tail = np.ones(1)
        for u in range(n - 1, -1, -1):
            pairs = partials[u].reshape(-1, 2)
            grad[u] = (pairs[:, 1] - pairs[:, 0]) @ tail
            if u:
                tail = np.outer(tail, (1.0 - coords[u], coords[u])).ravel()
        return (1.0 - coords) * grad, float(partials[-1][0])

    def _sampled_sets(self, coords: np.ndarray, stream: int) -> Iterator[np.ndarray]:
        """Each chunk's sampled sets as a (rows, n) bool matrix, in chunk order."""
        n = coords.size
        full, rest = divmod(self.estimator.sample_count(n), DEFAULT_CHUNK)
        sizes = [DEFAULT_CHUNK] * full + ([rest] if rest else [])
        for chunk_index, size in enumerate(sizes):
            rng = derive_rng(self.estimator.seed, _MC_STREAM, stream, chunk_index)
            yield rng.random((size, n)) < coords

    def _value_mc(self, coords: np.ndarray, stream: int) -> tuple[float, float]:
        samples = self.estimator.sample_count(coords.size)
        total = 0.0
        total_sq = 0.0
        for sets in self._sampled_sets(coords, stream):
            vals = self.oracle.evaluate_many(sets)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
        mean = total / samples
        variance = max(total_sq / samples - mean * mean, 0.0)
        return mean, float(np.sqrt(variance / samples))

    def _weights_mc(self, coords: np.ndarray, stream: int) -> tuple[np.ndarray, float]:
        n = coords.size
        samples = self.estimator.sample_count(n)
        base_total = 0.0
        forced_totals = np.zeros(n)
        for sets in self._sampled_sets(coords, stream):
            vals = self.oracle.evaluate_many(sets)
            base_total += float(vals.sum())
            for u in range(n):
                present = sets[:, u]
                forced_totals[u] += float(vals[present].sum())
                missing = sets[~present]
                if missing.shape[0]:
                    missing[:, u] = True
                    forced_totals[u] += float(self.oracle.evaluate_many(missing).sum())
        base = base_total / samples
        w = forced_totals / samples - base
        # sampling noise can push a true-zero weight slightly negative
        np.maximum(w, 0.0, out=w)
        return w, base
