"""Bundled demonstration instance: ten workers, budget six.

Sample counts span 100..1000 so per-worker accuracies differ enough that the
greedy baseline concentrates on a fixed six-worker clique, which is exactly
what the fairness-aware policies are meant to break up. Fairness floors are
a base profile scaled by a single knob beta; the profile sums to 10, so the
floors stay feasible for beta up to 0.6.
"""
from __future__ import annotations

import numpy as np

from .oracles import AccuracyOracle, WorkerPool

DEMO_SAMPLE_COUNTS = (200.0, 800.0, 1000.0, 500.0, 100.0, 300.0, 400.0, 900.0, 100.0, 200.0)
DEMO_FAIRNESS_BASE = (0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5)
DEMO_K = 6
DEMO_BETAS = tuple(round(0.06 * i, 2) for i in range(11))  # 0.00, 0.06, ..., 0.60


def demo_fairness(beta: float) -> np.ndarray:
    return beta * np.asarray(DEMO_FAIRNESS_BASE)


def demo_pool(beta: float = 0.42) -> WorkerPool:
    return WorkerPool(n=len(DEMO_SAMPLE_COUNTS), k=DEMO_K, fairness=demo_fairness(beta))


def demo_oracle() -> AccuracyOracle:
    return AccuracyOracle(sample_counts=DEMO_SAMPLE_COUNTS)


# Default seed for the demo runs. The rounding stage leaves the low-count
# workers exactly at their floors, so their realized fractions sit within
# rounding noise of the requirement. Over the 1e5-round horizon with seeds
# 0..44, every worker ends at or above requirement - 1e-3 on 45 of 45 seeds
# for faircg1 and 42 of 45 for faircg2 (on seeds 4, 33 and 44 a worker ends
# up to 2.7e-4 below that line); seed 43, chosen when rounds drew
# independently, passes both.
DEMO_MASTER_SEED = 43


def demo_config(
    policy: str = "faircg1",
    beta: float = 0.42,
    horizon: int | None = None,
    master_seed: int = DEMO_MASTER_SEED,
) -> dict:
    """JSON-ready run configuration for the demo instance."""
    cfg: dict = {
        "n": len(DEMO_SAMPLE_COUNTS),
        "k": DEMO_K,
        "sample_counts": list(DEMO_SAMPLE_COUNTS),
        "fairness": {"beta": beta, "base": list(DEMO_FAIRNESS_BASE)},
        "oracle": {"kind": "accuracy", "min_error": 0.05, "scale": 0.5, "exponent": -0.2},
        "policy": policy,
        "master_seed": master_seed,
    }
    if horizon is not None:
        cfg["horizon"] = horizon
    return cfg
