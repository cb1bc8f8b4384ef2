"""End-to-end policy runs: execute, derive reports, write deterministic files.

Stationary policies are run on their fast path: the continuous-greedy
variants compute the fractional point once and round it every round,
TRACE_BLOCK rounds at a time. Round t rounds with the draws
frac(U + t * alpha) of ``derive_draws``: one random shift U from the stream
(master_seed, ROUND_STREAM) and a Kronecker step alpha, so each round has
dep_round's law and each worker's count stays close to y1_u * t. The plain
greedy baseline computes its set once and replays it. The debt scheduler is
genuinely sequential and is looped round by round.

All CSV output is byte-deterministic for a given (config, master_seed):
floats are written in shortest-exact form and every row order is fixed.
The manifest carries the config hash, query counts, and wall time (the one
value allowed to differ between reruns).
"""
from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import RunConfig
# derive_rng and dep_round stay bound here although execute_run rounds through
# derive_draws and dep_round_many: perfbench/tracer.py wraps them, with
# fairdg_round, as attributes of this module and needs them to exist
from .core import derive_draws, derive_rng, format_float  # noqa: F401
from .discrete import DebtLedger, dg_round, fairdg_round, round_robin_policy
from .rounding import dep_round, dep_round_many  # noqa: F401
from .greedy import ContinuousGreedyResult, GreedyStep, faircg1_fractional, faircg2_fractional
from .lp import SUPPORT_TOL, LpSolution, solve_uopt
from .metrics import (
    TRACE_BLOCK,
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
# CSV rows formatted per write. A block holds one small str per cell: at
# metrics.TRACE_BLOCK's 4096 rows, writing a 1e5-round demo run peaks at 6.8 MB
# of Python allocations (tracemalloc), against 4.3 MB at 1024 rows
WRITE_BLOCK = 1024


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
        # round t's draws are row t of one shifted Kronecker sequence; a
        # block's draws are held only while it is rounded
        for start in range(0, config.horizon, TRACE_BLOCK):
            stop = min(start + TRACE_BLOCK, config.horizon)
            rounds = np.arange(start, stop)
            draws = derive_draws(config.master_seed, (ROUND_STREAM,), rounds, pool.n)
            selected[start:stop] = dep_round_many(greedy_result.y1, draws)
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
        f_of_r = evaluator.value(pool.fairness)
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
    trace = result.trace
    # one pass over the cumulative counts, a block of rounds at a time, gives
    # each round's max debt and the sampled rows of convergence.csv
    r = result.pool.fairness[None, :]
    stride = max(1, trace.horizon // 1000)
    debt_blocks, sampled_t, sampled_counts = [], [], []
    for t, counts in trace.count_blocks():
        debt_blocks.append((r * t - counts).max(axis=1))
        keep = (t[:, 0] % stride == 0) | (t[:, 0] == trace.horizon)
        sampled_t.append(t[keep])
        sampled_counts.append(counts[keep])
    sampled = np.concatenate(sampled_t)
    fractions = np.concatenate(sampled_counts) / sampled

    rep = result.fairness
    written = [
        _write_csv(
            out / "rounds.csv",
            round=np.arange(1, trace.horizon + 1),
            selected=trace.selected,
            utility=trace.utilities,
            running_average=trace.running_average(),
            max_debt=np.concatenate(debt_blocks),
        ),
        _write_csv(
            out / "fractions.csv",
            worker=np.arange(trace.n),
            requirement=rep.requirements,
            fraction=rep.fractions,
            satisfied=rep.satisfied,
            max_debt=rep.max_debt,
        ),
        _write_csv(
            out / "convergence.csv",
            round=sampled[:, 0],
            **{f"fraction_{u}": fractions[:, u] for u in range(trace.n)},
        ),
    ]
    if result.certificates is not None:
        bounds = _record_columns(BoundCertificates, [result.certificates])
        written.append(_write_csv(out / "bounds.csv", **bounds))
    if result.config.emit_step_trace and result.greedy is not None:
        steps = result.greedy.steps
        columns = _record_columns(GreedyStep, steps)
        written.append(_write_csv(out / "steps.csv", step=np.arange(len(steps)), **columns))
    written.append(_write_text(out / "manifest.txt", [_manifest_text(result)]))
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


def _record_columns(record_type: type, records) -> dict[str, list]:
    """One column per field of the dataclass, in field order, over the records."""
    fields = dataclasses.fields(record_type)
    return {f.name: [getattr(rec, f.name) for rec in records] for f in fields}


def _write_csv(path: Path, **columns) -> Path:
    """Write equal-length columns as a CSV whose header is their names.

    Cells follow ``_cells``; rows are formatted and written WRITE_BLOCK at a
    time, so no file is ever held whole as text.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    rows = len(arrays[0])

    def blocks():
        yield ",".join(columns) + "\n"
        for start in range(0, rows, WRITE_BLOCK):
            cells = [_cells(a[start : start + WRITE_BLOCK]) for a in arrays]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    return _write_text(path, blocks())


def _cells(values: np.ndarray) -> list[str]:
    """A column's cells by dtype: floats in shortest-exact form with NaN
    blank, booleans as 1/0, ints and strings through str, and a 2-d boolean
    column as each row's ids joined by "|"."""
    if values.ndim == 2:
        ids = [str(u) for u in np.nonzero(values)[1].tolist()]
        ends = np.cumsum(values.sum(axis=1)).tolist()
        return ["|".join(ids[a:b]) for a, b in zip([0] + ends, ends)]
    if values.dtype == bool:
        return ["1" if v else "0" for v in values.tolist()]
    if values.dtype.kind == "f":
        return ["" if math.isnan(v) else format_float(v) for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def _write_text(path: Path, parts: Iterable[str]) -> Path:
    """Write the parts in turn to a temp file, then move it onto ``path``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(parts)
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
        keep = np.flatnonzero(solution.probabilities > SUPPORT_TOL)
        _write_csv(
            out / "support.csv",
            subset=solution.subsets[keep],
            utility=solution.subset_values[keep],
            probability=solution.probabilities[keep],
        )
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
        _write_csv(out / "sweep.csv", **_record_columns(SweepRow, rows))
    return rows


def _sweep_base(config: RunConfig) -> tuple[float, ...]:
    if config.fairness_base is None:
        raise ValueError(
            'the sweep rescales floors, so the config must give fairness in '
            '{"beta": b, "base": [...]} form'
        )
    return config.fairness_base

