"""End-to-end policy runs: execute, derive reports, write deterministic files.

Stationary policies are run on their fast path: the continuous-greedy
variants compute the fractional point once and round it independently every
round (round t uses the stream derived from (master_seed, ROUND_STREAM, t)),
and the plain greedy baseline computes its set once and replays it. The
debt scheduler is genuinely sequential and is looped round by round.

All CSV output is byte-deterministic for a given (config, master_seed):
floats are written in shortest-exact form and every row order is fixed.
The manifest carries the config hash, query counts, and wall time (the one
value allowed to differ between reruns).
"""
from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .core import FractionalPoint, derive_rng, format_float
from .discrete import DebtLedger, dg_round, fairdg_round, round_robin_policy
from .rounding import dep_round
from .greedy import ContinuousGreedyResult, faircg1_fractional, faircg2_fractional
from .lp import LpSolution, solve_uopt
from .metrics import (
    BoundCertificates,
    FairnessReport,
    SelectionTrace,
    bound_certificates,
    fairness_report,
)
from .multilinear import ExtensionEvaluator
from .oracles import WorkerPool

SCHEMA_VERSION = 2
ROUND_STREAM = 11


@dataclass
class RunResult:
    config: RunConfig
    pool: WorkerPool
    trace: SelectionTrace
    fairness: FairnessReport
    greedy: ContinuousGreedyResult | None
    certificates: BoundCertificates | None
    lp: LpSolution | None
    oracle_queries: int
    wall_time_s: float
    notes: tuple[str, ...] = ()


def execute_run(config: RunConfig) -> RunResult:
    started = time.perf_counter()
    pool = config.build_pool()
    oracle = config.build_oracle()
    notes: list[str] = []

    lp_solution: LpSolution | None = None
    greedy_result: ContinuousGreedyResult | None = None
    selected = np.zeros((config.horizon, pool.n), dtype=bool)
    if config.policy in ("faircg1", "faircg2"):
        # the LP goes first, before the evaluator holds its exact 2^n table;
        # that one evaluator then serves the driver, F(r) and the certificates
        if math.comb(pool.n, pool.k) <= config.subset_cap:
            lp_solution = solve_uopt(pool, oracle, subset_cap=config.subset_cap)
        else:
            notes.append("bound certificates skipped: subset count exceeds subset_cap")
        evaluator = ExtensionEvaluator(oracle, config.build_estimator())
        driver = faircg1_fractional if config.policy == "faircg1" else faircg2_fractional
        greedy_result = driver(pool, evaluator, step_count=config.resolved_step_count())
        for t in range(config.horizon):
            rng = derive_rng(config.master_seed, ROUND_STREAM, t)
            selected[t, dep_round(greedy_result.y1, rng)] = True
    elif config.policy == "fairdg":
        ledger = DebtLedger.fresh(pool.n)
        for t in range(config.horizon):
            ids = fairdg_round(pool, oracle, ledger, strict_debt=config.strict_debt)
            selected[t, ids] = True
    elif config.policy == "dg":
        selected[:, dg_round(pool, oracle)] = True
    elif config.policy == "roundrobin":
        selected = round_robin_policy(pool, config.horizon)
    else:
        raise ValueError(f"unknown policy {config.policy!r}")

    trace = SelectionTrace(selected, oracle.evaluate_many(selected))
    report = fairness_report(trace, pool.fairness)

    certificates: BoundCertificates | None = None
    if lp_solution is not None:
        f_of_r = evaluator.value(FractionalPoint(pool.fairness))
        certificates = bound_certificates(
            pool, evaluator, greedy_result.y1, lp_solution.u_opt, f_of_r
        )

    return RunResult(
        config=config,
        pool=pool,
        trace=trace,
        fairness=report,
        greedy=greedy_result,
        certificates=certificates,
        lp=lp_solution,
        oracle_queries=oracle.query_count,
        wall_time_s=time.perf_counter() - started,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# deterministic file output


def write_run_outputs(result: RunResult, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    trace = result.trace
    running = trace.running_average()
    # one pass over the cumulative counts, a block of rounds at a time, gives
    # each round's max debt and the sampled rows of convergence.csv
    r = result.pool.fairness[None, :]
    stride = max(1, trace.horizon // 1000)
    debt_blocks = []
    convergence = ["round," + ",".join(f"fraction_{u}" for u in range(trace.n))]
    for t, counts in trace.count_blocks():
        debt_blocks.append((r * t - counts).max(axis=1))
        for i in np.flatnonzero((t[:, 0] % stride == 0) | (t[:, 0] == trace.horizon)):
            fracs = counts[i] / float(t[i, 0])
            convergence.append(f"{t[i, 0]}," + ",".join(format_float(v) for v in fracs))
    debt_by_round = np.concatenate(debt_blocks)

    # worker ids as strings; a round's row masks out the ids of its cell
    id_names = np.array([str(u) for u in range(trace.n)], dtype=object)
    rows = ["round,selected,utility,running_average,max_debt"]
    for t, row in enumerate(trace.selected):
        rows.append(
            ",".join(
                (
                    str(t + 1),
                    "|".join(id_names[row]),
                    format_float(trace.utilities[t]),
                    format_float(running[t]),
                    format_float(debt_by_round[t]),
                )
            )
        )
    written.append(_write_text(out / "rounds.csv", "\n".join(rows) + "\n"))

    rep = result.fairness
    rows = ["worker,requirement,fraction,satisfied,max_debt"]
    for u in range(result.pool.n):
        rows.append(
            ",".join(
                (
                    str(u),
                    format_float(rep.requirements[u]),
                    format_float(rep.fractions[u]),
                    "1" if rep.satisfied[u] else "0",
                    format_float(rep.max_debt[u]),
                )
            )
        )
    written.append(_write_text(out / "fractions.csv", "\n".join(rows) + "\n"))

    written.append(_write_text(out / "convergence.csv", "\n".join(convergence) + "\n"))

    if result.certificates is not None:
        c = result.certificates
        rows = [
            "extension_value,sigma,mode,c_r,u_opt,f_of_r,"
            "variant_one_bound,variant_two_bound,variant_one_ok,variant_two_ok,tol",
            ",".join(
                (
                    format_float(c.extension_value),
                    format_float(c.sigma),
                    c.mode,
                    format_float(c.c_r),
                    format_float(c.u_opt),
                    format_float(c.f_of_r),
                    format_float(c.variant_one_bound),
                    format_float(c.variant_two_bound),
                    "1" if c.variant_one_ok else "0",
                    "1" if c.variant_two_ok else "0",
                    format_float(c.tol),
                )
            ),
        ]
        written.append(_write_text(out / "bounds.csv", "\n".join(rows) + "\n"))

    if result.config.emit_step_trace and result.greedy is not None:
        rows = ["step,tau,extension_value,linear_gain,slack"]
        for idx, step in enumerate(result.greedy.steps):
            rows.append(
                ",".join(
                    (
                        str(idx),
                        format_float(step.tau),
                        format_float(step.extension_value),
                        format_float(step.linear_gain),
                        format_float(step.slack),
                    )
                )
            )
        written.append(_write_text(out / "steps.csv", "\n".join(rows) + "\n"))

    written.append(
        _write_text(out / "manifest.txt", _manifest_text(result))
    )
    return written


def _manifest_text(result: RunResult) -> str:
    cfg = result.config
    estimator = cfg.build_estimator()
    pairs = [
        ("schema_version", str(SCHEMA_VERSION)),
        ("config_hash", cfg.config_hash()),
        ("profile", cfg.profile),
        ("policy", cfg.policy),
        ("n", str(cfg.n)),
        ("k", str(cfg.k)),
        ("horizon", str(cfg.horizon)),
        ("master_seed", str(cfg.master_seed)),
        ("step_count", str(cfg.resolved_step_count())),
        ("estimator_mode", estimator.resolve_mode(cfg.n)),
        ("estimator_samples", str(estimator.sample_count(cfg.n))),
        ("strict_debt", str(cfg.strict_debt)),
        ("mean_utility", format_float(result.trace.mean_utility())),
        ("u_opt", format_float(result.lp.u_opt) if result.lp else "not_computed"),
        ("oracle_queries", str(result.oracle_queries)),
        ("notes", ";".join(result.notes) if result.notes else ""),
        ("wall_time_s", f"{result.wall_time_s:.3f}"),
    ]
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def _write_text(path: Path, content: str) -> Path:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# the opt and sweep commands


def run_opt(config: RunConfig, out_dir: str | Path | None = None) -> LpSolution:
    pool = config.build_pool()
    oracle = config.build_oracle()
    solution = solve_uopt(pool, oracle, subset_cap=config.subset_cap)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = ["subset,utility,probability"]
        for s, value, prob in zip(
            solution.subsets, solution.subset_values, solution.probabilities
        ):
            if prob > 1e-10:
                rows.append(
                    "|".join(str(u) for u in s)
                    + f",{format_float(value)},{format_float(prob)}"
                )
        _write_text(out / "support.csv", "\n".join(rows) + "\n")
    return solution


@dataclass(frozen=True)
class SweepRow:
    beta: float
    policy: str
    status: str
    u_opt: float
    mean_utility: float
    empirical_ratio: float
    bound_ratio: float


def run_sweep(config: RunConfig, out_dir: str | Path | None = None) -> list[SweepRow]:
    """Scale the fairness floors by each beta and run every fair policy.

    Requires the config's fairness to be given in {"beta", "base"} form so
    there is a base profile to scale. Infeasible betas produce a row with
    status "infeasible" and no numbers. U_opt is the faircg1 run's own LP
    optimum; when C(n, k) exceeds subset_cap that run solves no LP, and the
    rows leave U_opt and both ratios blank.
    """
    base = _sweep_base(config)
    rows: list[SweepRow] = []
    for beta in config.sweep_betas:
        floors = tuple(beta * b for b in base)
        cfg_beta = config.with_overrides(fairness=floors)
        pool = cfg_beta.build_pool()
        if not pool.is_feasible():
            for policy in ("faircg1", "faircg2", "fairdg"):
                rows.append(
                    SweepRow(beta, policy, "infeasible", math.nan, math.nan, math.nan, math.nan)
                )
            continue
        u_opt = math.nan  # faircg1 runs first and brings its LP, unless over subset_cap
        for policy in ("faircg1", "faircg2", "fairdg"):
            result = execute_run(cfg_beta.with_overrides(policy=policy))
            if policy == "faircg1" and result.lp is not None:
                u_opt = result.lp.u_opt
            mean = result.trace.mean_utility()
            ratio = mean / u_opt if u_opt > 0 else math.nan
            if math.isnan(u_opt):
                bound_ratio = math.nan
            elif policy == "faircg1":
                bound_ratio = 1.0 - 1.0 / math.e
            elif policy == "faircg2" and result.certificates is not None:
                bound_ratio = result.certificates.variant_two_bound / u_opt
            else:
                bound_ratio = math.nan
            rows.append(
                SweepRow(beta, policy, "ok", u_opt, mean, ratio, bound_ratio)
            )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["beta,policy,status,u_opt,mean_utility,empirical_ratio,bound_ratio"]
        for row in rows:
            lines.append(
                ",".join(
                    (
                        format_float(row.beta),
                        row.policy,
                        row.status,
                        _nan_blank(row.u_opt),
                        _nan_blank(row.mean_utility),
                        _nan_blank(row.empirical_ratio),
                        _nan_blank(row.bound_ratio),
                    )
                )
            )
        _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    return rows


def _sweep_base(config: RunConfig) -> tuple[float, ...]:
    if config.fairness_base is None:
        raise ValueError(
            'the sweep rescales floors, so the config must give fairness in '
            '{"beta": b, "base": [...]} form'
        )
    return config.fairness_base


def _nan_blank(value: float) -> str:
    return "" if math.isnan(value) else format_float(value)
