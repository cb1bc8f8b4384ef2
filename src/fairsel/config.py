"""Run configuration: JSON schema, profiles, canonical hashing.

A config file is a single JSON object. Required keys:

  n, k                 ground set size and per-round budget
  fairness             {"explicit": [r_0, ...]} or {"beta": b, "base": [...]}
  oracle               {"kind": "accuracy", "min_error", "scale", "exponent"}
                       | {"kind": "coverage", "item_weights": [...], "covers": [[...], ...]}
                       | {"kind": "modular", "weights": [...]}
  policy               faircg1 | faircg2 | fairdg | dg | roundrobin

Optional keys (an absent key takes its default; null means the same for
horizon, step_count, estimator.samples, sample_counts and sweep_betas, and
is an error elsewhere):

  sample_counts        per-worker L_u (required by the accuracy oracle)
  horizon              rounds T
  master_seed          non-negative int (default 0)
  step_count           continuous-greedy discretization (fast: 25, full: n^2)
  estimator            {"mode": "auto" | "exact" | "monte_carlo", "samples": int};
                       auto is exact up to n = 15, samples default to the profile's
  strict_debt          true/false, debt rule > 0 instead of >= 0 (default false)
  emit_step_trace      true/false, write the per-step greedy trace CSV
  sweep_betas          list of betas for the sweep command
  subset_cap           variable cap for the stationary LP (default 1e5)
  profile              fast | full (a profile passed by the caller wins, but
                       the file's value must still be valid; so must its
                       master_seed when the caller passes a seed)

Integer keys (n, k, horizon, master_seed, step_count, subset_cap and
estimator.samples) take integral numbers only: 6.7 and true are errors, not
6 and 1. The numbers of fairness, sample_counts and sweep_betas must be JSON
numbers, so true and "0.3" are errors too. The two flags take JSON booleans
only. Any other key, at the top level or inside "fairness", "estimator" or
"oracle" (each oracle kind takes only the parameters listed above, and a
coverage or modular oracle needs all of them), is rejected with its name.

Profiles: "fast" (step_count 25, samples 1e4, horizon 1e4) for quick runs
and tests; "full" (step_count n^2, samples n^5, horizon 1e5) reproduces the
reference simulation scale. Explicit config values always win over profile
values.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .multilinear import ESTIMATOR_MODES, ExtensionEstimator
from .oracles import AccuracyOracle, CoverageOracle, ModularOracle, UtilityOracle, WorkerPool
from .presets import DEMO_BETAS

POLICIES = ("faircg1", "faircg2", "fairdg", "dg", "roundrobin")

PROFILES: dict[str, dict[str, int | None]] = {
    "fast": {"step_count": 25, "samples": 10_000, "horizon": 10_000},
    "full": {"step_count": None, "samples": None, "horizon": 100_000},
}
DEFAULT_PROFILE = "fast"

FAIRNESS_FORMS = 'config needs "fairness" as {"explicit": [...]} or {"beta": b, "base": [...]}'
# oracle kind -> (parameters it needs, parameters it may take)
ORACLE_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "accuracy": ((), ("min_error", "scale", "exponent")),
    "coverage": (("item_weights", "covers"), ()),
    "modular": (("weights",), ()),
}

CONFIG_KEYS = frozenset(
    (
        "n", "k", "fairness", "oracle", "policy", "sample_counts", "horizon",
        "master_seed", "step_count", "estimator", "strict_debt",
        "emit_step_trace", "sweep_betas", "subset_cap", "profile",
    )
)
ESTIMATOR_KEYS = ("mode", "samples")


@dataclass(frozen=True)
class RunConfig:
    n: int
    k: int
    fairness: tuple[float, ...]
    oracle: dict[str, Any]
    policy: str
    horizon: int
    master_seed: int
    step_count: int | None  # None = n^2
    estimator: dict[str, Any]  # {"mode", "samples"} as parse_config resolved them
    sample_counts: tuple[float, ...] | None = None
    strict_debt: bool = False
    emit_step_trace: bool = False
    sweep_betas: tuple[float, ...] = DEMO_BETAS
    subset_cap: int = 100_000
    profile: str = DEFAULT_PROFILE
    # base profile when fairness was given as beta * base; sweeps rescale it
    fairness_base: tuple[float, ...] | None = None

    def build_pool(self) -> WorkerPool:
        return WorkerPool(n=self.n, k=self.k, fairness=np.asarray(self.fairness))

    def build_oracle(self) -> UtilityOracle:
        params = dict(self.oracle)
        kind = params.pop("kind")
        if kind == "accuracy":
            if self.sample_counts is None:
                raise ValueError("the accuracy oracle needs sample_counts")
            return AccuracyOracle(sample_counts=self.sample_counts, **params)
        if kind == "coverage":
            return CoverageOracle(n=self.n, **params)
        if kind == "modular":
            return ModularOracle(**params)
        raise ValueError(f"unknown oracle kind {kind!r}")

    def build_estimator(self) -> ExtensionEstimator:
        return ExtensionEstimator(**self.estimator, seed=self.master_seed)

    def resolved_step_count(self) -> int:
        return self.step_count if self.step_count is not None else self.n**2

    def canonical_dict(self) -> dict[str, Any]:
        """Every result-affecting field, JSON-plain, in a stable shape: all of
        them but the profile, whose values the other fields already hold."""
        fields = asdict(self)
        del fields["profile"]
        return fields

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(
    path: str | Path,
    profile: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, profile=profile, seed=seed)


def parse_config(
    raw: dict[str, Any],
    profile: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    # the file's own profile and master_seed are checked even when the caller
    # overrides them, so a typo there never passes silently
    profile_name = _profile_value(raw.get("profile", DEFAULT_PROFILE))
    if profile is not None:
        profile_name = _profile_value(profile)
    defaults = PROFILES[profile_name]

    n = _require_int(raw, "n", minimum=1)
    k = _require_int(raw, "k", minimum=1)
    if k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")

    fairness, fairness_base = _parse_fairness(raw.get("fairness"), n)
    oracle = _parse_oracle(raw.get("oracle"))

    policy = raw.get("policy")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")

    horizon = raw.get("horizon")
    horizon = _int_value(defaults["horizon"] if horizon is None else horizon, "horizon", 1)

    master_seed = _int_value(raw.get("master_seed", 0), "master_seed", 0)
    if seed is not None:
        master_seed = _int_value(seed, "master_seed", 0)

    step_count = raw.get("step_count")
    if step_count is None:
        step_count = defaults["step_count"]
    if step_count is not None:
        step_count = _int_value(step_count, "step_count", 1)

    estimator = _parse_estimator(raw.get("estimator", {}), defaults["samples"])

    sample_counts = raw.get("sample_counts")
    if sample_counts is not None:
        sample_counts = _float_list(sample_counts, "sample_counts")
        if len(sample_counts) != n:
            raise ValueError(f"sample_counts must list {n} values")

    sweep = raw.get("sweep_betas")
    sweep_betas = _float_list(sweep, "sweep_betas") if sweep is not None else DEMO_BETAS

    return RunConfig(
        n=n,
        k=k,
        fairness=fairness,
        oracle=oracle,
        policy=str(policy),
        horizon=horizon,
        master_seed=master_seed,
        step_count=step_count,
        estimator=estimator,
        sample_counts=sample_counts,
        strict_debt=_bool_value(raw.get("strict_debt", False), "strict_debt"),
        emit_step_trace=_bool_value(raw.get("emit_step_trace", False), "emit_step_trace"),
        sweep_betas=sweep_betas,
        subset_cap=_int_value(raw.get("subset_cap", 100_000), "subset_cap", 1),
        profile=profile_name,
        fairness_base=fairness_base,
    )


def _profile_value(name: Any) -> str:
    if not isinstance(name, str) or name not in PROFILES:
        raise ValueError(f"profile must be one of {sorted(PROFILES)}, got {name!r}")
    return name


def _require_int(raw: dict, key: str, minimum: int) -> int:
    if key not in raw:
        raise ValueError(f"config is missing required key {key!r}")
    return _int_value(raw[key], key, minimum)


def _int_value(value: Any, key: str, minimum: int) -> int:
    """An integral JSON number of at least ``minimum``; rejects 6.7 and true."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{key} must be at least {minimum}, got {value!r}")
    return int(value)


def _float_value(value: Any, key: str) -> float:
    """A finite JSON number; rejects true and "0.3"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return float(value)


def _float_list(values: Any, key: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_float_value(v, f"{key}[{i}]") for i, v in enumerate(values))


def _bool_value(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _parse_estimator(raw: Any, default_samples: int | None) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValueError(f"estimator must be an object, got {raw!r}")
    for key in raw:
        if key not in ESTIMATOR_KEYS:
            raise ValueError(
                f"unknown config key estimator.{key}; the estimator takes "
                + " and ".join(ESTIMATOR_KEYS)
            )
    mode = raw.get("mode", "auto")
    if mode not in ESTIMATOR_MODES:
        raise ValueError(f"estimator.mode must be one of {ESTIMATOR_MODES}, got {mode!r}")
    samples = raw.get("samples")
    if samples is None:
        samples = default_samples
    if samples is not None:
        samples = _int_value(samples, "estimator.samples", 1)
    return {"mode": mode, "samples": samples}


def _parse_oracle(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValueError('config needs an "oracle" object with a "kind"')
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in ORACLE_PARAMS:
        raise ValueError(f"oracle.kind must be one of {tuple(ORACLE_PARAMS)}, got {kind!r}")
    needed, optional = ORACLE_PARAMS[kind]
    for key in raw:
        if key != "kind" and key not in needed + optional:
            raise ValueError(
                f"unknown config key oracle.{key}; the {kind} oracle takes "
                + ", ".join(needed + optional)
            )
    for key in needed:
        if key not in raw:
            raise ValueError(f"the {kind} oracle needs oracle.{key}")
    return raw


def _parse_fairness(
    raw: Any, n: int
) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    base: tuple[float, ...] | None = None
    if not isinstance(raw, dict):
        raise ValueError(FAIRNESS_FORMS)
    form = ("explicit",) if "explicit" in raw else ("beta", "base")
    for key in raw:
        if key not in form:
            raise ValueError(
                f"unknown config key fairness.{key}; fairness takes " + " and ".join(form)
            )
    if "explicit" in raw:
        values = _float_list(raw["explicit"], "fairness.explicit")
    elif "beta" in raw and "base" in raw:
        beta = _float_value(raw["beta"], "fairness.beta")
        base = _float_list(raw["base"], "fairness.base")
        values = tuple(beta * v for v in base)
    else:
        raise ValueError(FAIRNESS_FORMS)
    if len(values) != n:
        raise ValueError(f"fairness must resolve to {n} floors")
    if min(values) < 0.0 or max(values) > 1.0:
        raise ValueError("fairness floors must lie in [0, 1]")
    return values, base
