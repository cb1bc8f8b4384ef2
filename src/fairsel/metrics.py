"""Fairness accounting, theoretical-bound certificates, and tail checks.

A SelectionTrace is the full record of a multi-round run: a (T, n) boolean
selection matrix (row t marks the workers picked in round t) and one utility
value per round. Its column means are the selection fractions the fairness
floors bound. Everything else here is derived views of a trace (fractions,
debts, running averages) or certificates that the run's fractional solution
met its provable guarantees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import FractionalPoint, as_vector
from .multilinear import ExtensionEvaluator
from .oracles import WorkerPool

DEFAULT_FAIRNESS_EPS = 1e-3
# rounds per block of the derived (T, n) count and debt views, so that a long
# trace never holds a full count or debt matrix
TRACE_BLOCK = 4096


class SelectionTrace:
    """A (T, n) selection matrix plus the T round utilities of one policy run."""

    def __init__(self, selected: np.ndarray, utilities: Sequence[float]):
        selected = np.asarray(selected, dtype=bool)
        utilities = np.asarray(utilities, dtype=float)
        if selected.ndim != 2:
            raise ValueError(f"selection matrix must be 2-d, got shape {selected.shape}")
        if utilities.shape != (selected.shape[0],):
            raise ValueError("one utility per round required")
        if not selected.shape[0]:
            raise ValueError("a trace needs at least one round")
        self.selected = selected
        self.utilities = utilities

    @property
    def n(self) -> int:
        return self.selected.shape[1]

    @property
    def horizon(self) -> int:
        return self.selected.shape[0]

    @property
    def selections(self) -> np.ndarray:
        """(T, k) selected ids per round, ascending; ValueError unless every
        round selects the same number of workers."""
        sizes = self.selected.sum(axis=1)
        if (sizes != sizes[0]).any():
            raise ValueError("rounds select different numbers of workers")
        return (np.flatnonzero(self.selected) % self.n).reshape(self.horizon, int(sizes[0]))

    def selection_matrix(self) -> np.ndarray:
        """(T, n) boolean matrix of who was selected when."""
        return self.selected

    def count_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The cumulative counts N_u(t), TRACE_BLOCK rounds at a time, as pairs
        of the round numbers t, a (rows, 1) column, and their (rows, n) N(t)."""
        carry = np.zeros(self.n, dtype=np.int64)
        for start in range(0, self.horizon, TRACE_BLOCK):
            counts = np.cumsum(self.selected[start : start + TRACE_BLOCK], axis=0, dtype=np.int64)
            counts += carry
            carry = counts[-1].copy()
            yield np.arange(start + 1, start + counts.shape[0] + 1)[:, None], counts

    def fractions(self) -> np.ndarray:
        return self.selected.sum(axis=0) / float(self.horizon)

    def running_average(self) -> np.ndarray:
        """Time-average utility after each round."""
        return np.cumsum(self.utilities) / np.arange(1, self.horizon + 1)

    def mean_utility(self) -> float:
        return float(self.utilities.mean())

    def max_debt(self, fairness: np.ndarray) -> np.ndarray:
        """Per-worker max over t of r_u * t - N_u(t)."""
        r = np.asarray(fairness, dtype=float)[None, :]
        return np.max([(r * t - counts).max(axis=0) for t, counts in self.count_blocks()], axis=0)


@dataclass(frozen=True)
class FairnessReport:
    """Final selection fractions against the floors, with a small tolerance."""

    fractions: np.ndarray
    requirements: np.ndarray
    satisfied: np.ndarray  # bool per worker: fraction >= r - eps
    max_debt: np.ndarray
    eps: float

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())

    @property
    def unsatisfied_ids(self) -> tuple[int, ...]:
        return tuple(int(u) for u in np.nonzero(~self.satisfied)[0])


def fairness_report(
    trace: SelectionTrace,
    fairness: Iterable[float],
    eps: float = DEFAULT_FAIRNESS_EPS,
) -> FairnessReport:
    r = as_vector(fairness, trace.n, "fairness")
    fractions = trace.fractions()
    return FairnessReport(
        fractions=fractions,
        requirements=r,
        satisfied=fractions >= r - eps,
        max_debt=trace.max_debt(r),
        eps=float(eps),
    )


@dataclass(frozen=True)
class AlphaFairnessResult:
    ok: bool
    alpha: float
    # earliest (round, worker) with fraction below r_u - 1/t**alpha, else None
    first_violation: tuple[int, int] | None


def alpha_fairness_check(
    trace: SelectionTrace, fairness: Iterable[float], alpha: float
) -> AlphaFairnessResult:
    """Check every prefix: N_u(t)/t >= r_u - t**(-alpha) for all u."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    alpha = float(alpha)
    r = as_vector(fairness, trace.n, "fairness")
    for t, counts in trace.count_blocks():
        # nonzero is row-major: its first hit is the earliest round, then worker
        bad_rounds, bad_workers = np.nonzero(counts / t < r[None, :] - t ** (-alpha))
        if bad_rounds.size:
            first = (int(t[bad_rounds[0], 0]), int(bad_workers[0]))
            return AlphaFairnessResult(ok=False, alpha=alpha, first_violation=first)
    return AlphaFairnessResult(ok=True, alpha=alpha, first_violation=None)


@dataclass(frozen=True)
class BoundCertificates:
    """Guarantee check for a fractional solution y(1) against U_opt.

    Variant one must reach (1 - 1/e) * U_opt; variant two must reach
    (1 - exp(-c_r)) * U_opt + F(r) * exp(-c_r), where
    c_r = 1 - max(max_u r_u, sum(r)/k) measures how much room the floors
    leave. With a Monte Carlo extension the check downgrades to a
    statistical certificate: the tolerance widens by three standard errors.
    """

    extension_value: float
    sigma: float
    mode: str  # "exact" or "monte_carlo"
    c_r: float
    u_opt: float
    f_of_r: float
    variant_one_bound: float
    variant_two_bound: float
    variant_one_ok: bool
    variant_two_ok: bool
    tol: float


def concession_rate(pool: WorkerPool) -> float:
    """c_r = 1 - max(max_u r_u, sum(r)/k): the floor-free share of the clock."""
    r = pool.fairness
    return 1.0 - max(float(r.max()), float(r.sum()) / pool.k)


def bound_certificates(
    pool: WorkerPool,
    evaluator: ExtensionEvaluator,
    y1: FractionalPoint | Iterable[float],
    u_opt: float,
    f_of_r: float,
    tol: float = 1e-3,
) -> BoundCertificates:
    value, sigma = evaluator.value_with_stderr(FractionalPoint.coerce(y1))
    c_r = concession_rate(pool)
    bound_one = (1.0 - 1.0 / math.e) * u_opt
    decay = math.exp(-c_r)
    bound_two = (1.0 - decay) * u_opt + f_of_r * decay
    slack = tol + (3.0 * sigma if evaluator.mode == "monte_carlo" else 0.0)
    return BoundCertificates(
        extension_value=value,
        sigma=sigma,
        mode=evaluator.mode,
        c_r=c_r,
        u_opt=float(u_opt),
        f_of_r=float(f_of_r),
        variant_one_bound=bound_one,
        variant_two_bound=bound_two,
        variant_one_ok=value >= bound_one - slack,
        variant_two_ok=value >= bound_two - slack,
        tol=float(tol),
    )


@dataclass(frozen=True)
class TailReport:
    """Empirical shortfall frequencies against the Hoeffding tail bound."""

    delta: float
    horizon: int
    ensemble_size: int
    bound: float  # exp(-2 T delta^2)
    statistical_slack: float
    frequencies: np.ndarray  # per worker: share of traces with fraction <= r - delta
    ok: bool
    worst_worker: int


def hoeffding_tail_check(
    traces: Sequence[SelectionTrace],
    fairness: Iterable[float],
    delta: float,
    confidence: float = 1e-3,
) -> TailReport:
    """Check P[fraction_u <= r_u - delta] <= exp(-2 T delta^2) empirically.

    ``confidence`` sets the statistical slack added to the bound for the
    finite ensemble: sqrt(log(1/confidence) / (2 M)).
    """
    if len(traces) < 100:
        raise ValueError("need an ensemble of at least 100 traces")
    if delta <= 0:
        raise ValueError("delta must be positive")
    horizon, n = traces[0].selected.shape
    if any(tr.selected.shape != (horizon, n) for tr in traces):
        raise ValueError("all traces must share one horizon and one worker count")
    r = as_vector(fairness, n, "fairness")
    stacked = np.stack([tr.fractions() for tr in traces])  # (M, n)
    freq = (stacked <= r[None, :] - delta).mean(axis=0)
    bound = math.exp(-2.0 * horizon * delta * delta)
    slack = math.sqrt(math.log(1.0 / confidence) / (2.0 * len(traces)))
    ok = bool((freq <= bound + slack).all())
    return TailReport(
        delta=float(delta),
        horizon=horizon,
        ensemble_size=len(traces),
        bound=bound,
        statistical_slack=slack,
        frequencies=freq,
        ok=ok,
        worst_worker=int(np.argmax(freq - bound)),
    )
