"""The benchmark's workloads: seeded configs and the settings they must resolve to.

Every workload is a list of jobs. A job is a raw config, written the way a
user would write a config file, plus the profile it is parsed under and the
settings ``parse_config`` must resolve it to.

The seed becomes the program's ``master_seed``, which drives every random
stream of a run: the per-round dependent rounding and the Monte Carlo draws
of the extension. The instances themselves are fixed per workload (the demo
instance, and one draw each from a fixed generator seed for the other two).
The in-house simplex takes anywhere from 2.4k to 9.6k pivots on draws of the
same size, so instances that changed with the seed would make the
seed-to-seed spread measure the instance rather than the program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("demo-full", "wide-exact", "sweep-mc")
POLICIES = ("faircg1", "faircg2", "fairdg", "dg", "roundrobin")
FAIR_POLICIES = ("faircg1", "faircg2", "fairdg")

# Sizes are cut so that one round of a workload lasts a few seconds and a
# run can report the median of several rounds; see README.md.

# demo-full: the bundled demo under the full profile, at a tenth of its horizon
DEMO_BETA, DEMO_HORIZON = 0.42, 10_000

# wide-exact: the exact-enumeration cap of the extension kernel
WIDE_N, WIDE_K, WIDE_BETA, WIDE_STEPS, WIDE_HORIZON = 15, 7, 0.3, 20, 3_000
WIDE_BASE = (0.5,) * 3 + (1.0,) * 9 + (1.5,) * 3

# sweep-mc: one worker above the exact cap, so the Monte Carlo path runs
SWEEP_N, SWEEP_K, SWEEP_HORIZON = 16, 8, 1_000
SWEEP_STEPS, SWEEP_SAMPLES = 6, 4_096
SWEEP_BETAS = (0.15, 0.3)
SWEEP_BASE = (0.5,) * 4 + (1.0,) * 8 + (1.5,) * 4
SWEEP_ITEMS = 40
# the two baselines are not part of a sweep; they run once at this beta
SWEEP_BASELINE_BETA = 0.3

# dg and roundrobin cost little per round; on the two workloads built for
# other layers they run this long so that their times and the writes of
# their outputs last long enough to be measured steadily
BASELINE_HORIZON = 20_000
BASELINES = ("dg", "roundrobin")

# generator seed of the fixed wide-exact and sweep-mc instances
INSTANCE_SEED = 2021

# Calls whose time goes to array work (the exact kernel, Monte Carlo batches,
# the simplex, per the traced runs) are calibrated with the numpy kernel;
# every other call is interpreter-bound and calibrated with the python one.
NUMPY_BOUND = {
    ("wide-exact", "faircg1"),
    ("wide-exact", "faircg2"),
    ("sweep-mc", "faircg1"),
    ("sweep-mc", "faircg2"),
    ("sweep-mc", "sweep"),
}


def calibration_kind(workload: str, label: str) -> str:
    """The calibrate.KERNELS entry that tracks a policy's or a job's time."""
    return "numpy" if (workload, label) in NUMPY_BOUND else "python"


@dataclass(frozen=True)
class Job:
    """One call into the program: execute_run (+ write_run_outputs) or run_sweep."""

    kind: str  # "run" or "sweep"
    raw: dict
    profile: str
    expect: dict  # resolved settings, see resolved_settings()

    @property
    def label(self) -> str:
        return "sweep" if self.kind == "sweep" else self.raw["policy"]


def make_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "demo-full":
        return _demo_full(seed)
    if workload == "wide-exact":
        return _wide_exact(seed)
    if workload == "sweep-mc":
        return _sweep_mc(seed)
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """The same jobs cut to 200 rounds and 2 steps, to load and touch every path.

    A sweep warms up as one run of its config's policy: that touches the same
    layers with one LP solve instead of three per beta.
    """
    return [
        Job("run", dict(job.raw, horizon=200, step_count=2), job.profile, expect={})
        for job in jobs
    ]


def resolved_settings(cfg) -> dict:
    """The settings of a parsed config that decide how much work a job does."""
    estimator = cfg.build_estimator()
    return {
        "n": cfg.n,
        "k": cfg.k,
        "policy": cfg.policy,
        "horizon": cfg.horizon,
        "step_count": cfg.resolved_step_count(),
        "estimator_mode": estimator.resolve_mode(cfg.n),
        "estimator_samples": estimator.sample_count(cfg.n),
        "master_seed": cfg.master_seed,
        "fairness": tuple(round(r, 12) for r in cfg.fairness),
        "sweep_betas": tuple(cfg.sweep_betas),
    }


def check_resolved(job: Job, cfg) -> None:
    """Raise if the parsed config does not say what the workload means.

    parse_config truncates non-integers and ignores unknown keys, so a typo
    in a workload's config would otherwise change the work done silently.
    """
    got = resolved_settings(cfg)
    wrong = {key: (got[key], want) for key, want in job.expect.items() if got[key] != want}
    if wrong:
        detail = ", ".join(f"{key}: got {g!r}, want {w!r}" for key, (g, w) in wrong.items())
        raise RuntimeError(f"{job.label} config resolved differently: {detail}")


def _floors(beta: float, base) -> tuple:
    return tuple(round(beta * b, 12) for b in base)


def _demo_full(seed: int) -> list[Job]:
    from fairsel.presets import DEMO_FAIRNESS_BASE, demo_config

    beta = DEMO_BETA
    jobs = []
    for policy in POLICIES:
        raw = demo_config(policy=policy, beta=beta, horizon=DEMO_HORIZON, master_seed=seed)
        expect = {
            "n": 10,
            "k": 6,
            "policy": policy,
            "horizon": DEMO_HORIZON,
            "step_count": 100,
            "estimator_mode": "exact",
            "estimator_samples": 100_000,
            "master_seed": seed,
            "fairness": _floors(beta, DEMO_FAIRNESS_BASE),
        }
        jobs.append(Job("run", raw, "full", expect))
    return jobs


def _wide_exact(seed: int) -> list[Job]:
    rng = np.random.default_rng([WIDE_N, INSTANCE_SEED])
    counts = [float(c) for c in rng.integers(100, 1001, size=WIDE_N)]
    jobs = []
    for policy in POLICIES:
        horizon = BASELINE_HORIZON if policy in BASELINES else WIDE_HORIZON
        raw = {
            "n": WIDE_N,
            "k": WIDE_K,
            "policy": policy,
            "fairness": {"beta": WIDE_BETA, "base": list(WIDE_BASE)},
            "oracle": {"kind": "accuracy", "min_error": 0.05, "scale": 0.5, "exponent": -0.2},
            "sample_counts": counts,
            "horizon": horizon,
            "step_count": WIDE_STEPS,
            "estimator": {"mode": "exact"},
            "master_seed": seed,
        }
        expect = {
            "n": WIDE_N,
            "k": WIDE_K,
            "policy": policy,
            "horizon": horizon,
            "step_count": WIDE_STEPS,
            "estimator_mode": "exact",
            "estimator_samples": 10_000,
            "master_seed": seed,
            "fairness": _floors(WIDE_BETA, WIDE_BASE),
        }
        jobs.append(Job("run", raw, "fast", expect))
    return jobs


def _sweep_mc(seed: int) -> list[Job]:
    rng = np.random.default_rng([SWEEP_N, INSTANCE_SEED])
    weights = [float(w) for w in rng.uniform(0.5, 1.5, size=SWEEP_ITEMS)]
    covers = [
        sorted(int(i) for i in rng.choice(SWEEP_ITEMS, size=6, replace=False))
        for _ in range(SWEEP_N)
    ]

    def raw_for(policy: str) -> dict:
        return {
            "n": SWEEP_N,
            "k": SWEEP_K,
            "policy": policy,
            "fairness": {"beta": SWEEP_BASELINE_BETA, "base": list(SWEEP_BASE)},
            "oracle": {"kind": "coverage", "item_weights": weights, "covers": covers},
            "horizon": BASELINE_HORIZON if policy in BASELINES else SWEEP_HORIZON,
            "step_count": SWEEP_STEPS,
            "estimator": {"mode": "monte_carlo", "samples": SWEEP_SAMPLES},
            "sweep_betas": list(SWEEP_BETAS),
            "master_seed": seed,
        }

    def expect_for(policy: str) -> dict:
        return {
            "n": SWEEP_N,
            "k": SWEEP_K,
            "policy": policy,
            "horizon": BASELINE_HORIZON if policy in BASELINES else SWEEP_HORIZON,
            "step_count": SWEEP_STEPS,
            "estimator_mode": "monte_carlo",
            "estimator_samples": SWEEP_SAMPLES,
            "master_seed": seed,
            "fairness": _floors(SWEEP_BASELINE_BETA, SWEEP_BASE),
            "sweep_betas": SWEEP_BETAS,
        }

    jobs = [Job("sweep", raw_for("faircg1"), "fast", expect_for("faircg1"))]
    for policy in BASELINES:
        jobs.append(Job("run", raw_for(policy), "fast", expect_for(policy)))
    return jobs
