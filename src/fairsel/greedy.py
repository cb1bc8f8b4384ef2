"""Continuous-greedy drivers over the fairness polytope.

Both variants discretize the clock into ``step_count`` equal steps. At each
step they ask the run's extension evaluator for the marginal weight vector at
the current point, take the polytope point x maximizing that linear objective,
and advance:

  variant one starts at the origin and moves at rate x;
  variant two starts at the fairness floor r and moves at rate x - r, so
  every intermediate point already honors the floors.

Either way the final point sums to k and is ready for dependent rounding.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FractionalPoint
from .multilinear import ExtensionEvaluator
from .oracles import WorkerPool
from .polytope import maximize_linear

# overshoot beyond 1 larger than this is a real bug, not float drift
CLAMP_WARN = 1e-9


@dataclass(frozen=True)
class GreedyStep:
    """One discretization step: clock value, extension value at the point
    BEFORE the update, the linear gain x.w, and the improvement slack
    dt*x.w - (next value - this value), i.e. how far the realized improvement
    fell short of the first-order prediction (negative = overachieved)."""

    tau: float
    extension_value: float
    linear_gain: float
    slack: float


@dataclass(frozen=True)
class ContinuousGreedyResult:
    y1: FractionalPoint
    value: float  # extension value at y1 (same estimator)
    variant: str
    step_count: int
    estimator_mode: str
    steps: tuple[GreedyStep, ...]
    clamp_excess: float  # largest pre-clamp overshoot beyond 1 seen


def faircg1_fractional(
    pool: WorkerPool,
    evaluator: ExtensionEvaluator,
    step_count: int | None = None,
) -> ContinuousGreedyResult:
    """Grow y from the origin at rate x(tau)."""
    return _drive(pool, evaluator, step_count, variant="faircg1")


def faircg2_fractional(
    pool: WorkerPool,
    evaluator: ExtensionEvaluator,
    step_count: int | None = None,
) -> ContinuousGreedyResult:
    """Grow y from the fairness floor r at rate x(tau) - r."""
    return _drive(pool, evaluator, step_count, variant="faircg2")


def _drive(pool, evaluator, step_count, variant):
    pool.require_feasible()
    steps = int(step_count) if step_count is not None else pool.n**2
    if steps < 1:
        raise ValueError("step_count must be at least 1")
    r = pool.fairness
    y = np.zeros(pool.n) if variant == "faircg1" else r.copy()
    dt = 1.0 / steps

    taus = []
    values = []
    gains = []
    clamp_excess = 0.0
    warned = False
    for step in range(steps):
        w, value_before = evaluator.weights(y, stream=step)
        x = maximize_linear(pool, w)
        rate = x if variant == "faircg1" else x - r
        y = y + dt * rate
        overshoot = float(y.max()) - 1.0
        if overshoot > 0.0:
            clamp_excess = max(clamp_excess, overshoot)
            if overshoot > CLAMP_WARN and not warned:
                warnings.warn(
                    f"coordinate overshot 1 by {overshoot:.3e} at step {step}; clamped",
                    RuntimeWarning,
                    stacklevel=3,
                )
                warned = True
            np.minimum(y, 1.0, out=y)
        taus.append(step * dt)
        values.append(value_before)
        gains.append(float(x @ w))

    final_value = evaluator.value(y, stream=steps)
    records = []
    for idx in range(steps):
        nxt = values[idx + 1] if idx + 1 < steps else final_value
        slack = dt * gains[idx] - (nxt - values[idx])
        records.append(
            GreedyStep(
                tau=taus[idx],
                extension_value=values[idx],
                linear_gain=gains[idx],
                slack=slack,
            )
        )
    return ContinuousGreedyResult(
        y1=FractionalPoint(y),
        value=final_value,
        variant=variant,
        step_count=steps,
        estimator_mode=evaluator.mode,
        steps=tuple(records),
        clamp_excess=clamp_excess,
    )
