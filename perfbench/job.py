"""One workload in one process: warm up, time whole rounds, check, report.

Started by run.py with the thread pools pinned and ``src`` on the path:

  python3 perfbench/job.py --workload NAME --seed N --seconds S --trace 0|1 \\
      --out DIR [--spans FILE.npz]

A round calls the program's public API once per job of the workload:
parse_config, then execute_run and write_run_outputs, or run_sweep. Rounds
repeat while that brings the measured time closest to the budget (always at
least one). Times are calibrated seconds (calibrate.py). Untraced figures
are medians over rounds. With tracing, untraced rounds take the first half
of the budget and traced rounds the second, and the per-layer figures are
means over the traced rounds.

What the checks need from a round is copied out of the program's results
and pickled to disk when the round ends, so the process holds no more
memory after ten rounds than after one. The peak memory is read after the
untraced rounds; only then are the outputs checked, so neither the
reference tables nor scipy count in it. A call that raises is a failed
operation: it is counted, and the round goes on with its next job. The
last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import pickle
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import fairsel.config as fconfig
import fairsel.runner as runner

import checks
from calibrate import Calibration
from checks import Reference, check_run, check_sweep, check_written
from tracer import Tracer
from workloads import (
    FAIR_POLICIES,
    POLICIES,
    Job,
    calibration_kind,
    check_resolved,
    make_jobs,
    warmup_jobs,
)


class PolicyTimer:
    """Stands in for fairsel.runner.execute_run and times every call to it.

    It sits at the name run_sweep looks up, so the policies run inside a
    sweep are timed one by one like those the benchmark runs itself. Each
    call is bracketed by calibration points and recorded as (measured
    seconds, calibrated seconds, oracle queries, RunRecord); the RunResult
    itself is handed back and not kept. ``spent`` is the time taken copying
    records, which run_round takes off the job's time.
    """

    def __init__(self, execute_run, workload: str):
        self.execute_run = execute_run
        self.workload = workload
        self.calibration = Calibration()
        self.calls: list[tuple[float, float, int, checks.RunRecord]] = []
        self.spent = 0.0

    def __call__(self, config):
        first = self.calibration.point()
        started = perf_counter()
        result = self.execute_run(config)
        seconds = perf_counter() - started
        copied = perf_counter()
        record = checks.take_record(result)
        self.spent += perf_counter() - copied
        last = self.calibration.point()
        kind = calibration_kind(self.workload, config.policy)
        calibrated = seconds * self.calibration.factor(kind, first, last)
        self.calls.append((seconds, calibrated, result.oracle_queries, record))
        return result


def run_round(jobs: list[Job], out: Path, timer: PolicyTimer) -> dict:
    """Run every job once, timing only the calls into the program.

    Calibration points bracket every job and every execute_run inside it.
    Their own time, and the time spent copying records, is taken off the
    job's. Each execute_run is calibrated with its policy's kernel, and the
    rest of a job with its own. What the checks need goes to a pickle in
    ``out``; the returned summary holds only figures.
    """
    calibration = timer.calibration = Calibration()
    total = write = measured = 0.0
    run_s: dict[str, float] = defaultdict(float)
    queries = failed = 0
    records = []
    sweeps = []
    for index, job in enumerate(jobs):
        job_dir = out / f"{index}-{job.label}"
        first = calibration.point()
        spent, copying = calibration.spent, timer.spent
        writing = 0.0
        ok = False
        started = perf_counter()
        try:
            cfg = fconfig.parse_config(job.raw, profile=job.profile)
            if job.kind == "sweep":
                rows = runner.run_sweep(cfg, job_dir)
                sweeps.append((cfg, rows, job_dir))
            else:
                result = runner.execute_run(cfg)
                written = perf_counter()
                runner.write_run_outputs(result, job_dir)
                writing = perf_counter() - written
                del result  # hold one run's trace at a time, as a user's process would
            ok = True
        except Exception:  # noqa: BLE001 - any failure of a call is counted
            failed += 1
            print(f"failed: {job.label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        seconds = (
            perf_counter() - started - (calibration.spent - spent) - (timer.spent - copying)
        )
        last = calibration.point()
        rest = seconds - writing - sum(raw for raw, _, _, _ in timer.calls)
        kind = calibration_kind(timer.workload, job.label)
        total += rest * calibration.factor(kind, first, last)
        write_s = writing * calibration.factor("python", first, last)
        total += write_s
        write += write_s
        measured += seconds
        for _, calibrated, call_queries, record in timer.calls:
            run_s[record.policy] += calibrated
            total += calibrated
            queries += call_queries
            if ok and job.kind == "run":
                record.out_dir = job_dir
            records.append(record)
        timer.calls.clear()
    out.mkdir(parents=True, exist_ok=True)
    pickled = out / "checks.pkl"
    with open(pickled, "wb") as fh:
        pickle.dump((records, sweeps), fh)
    return {
        "measured_s": measured,
        "factor": calibration.factor("python"),
        "total_s": total,
        "write_s": write,
        "run_s": dict(run_s),
        "oracle_queries": queries,
        "checks": pickled,
        "jobs": len(jobs),
        "failed": failed,
    }


def timed_rounds(jobs, budget: float, out: Path, timer: PolicyTimer, tag: str) -> list[dict]:
    rounds = []
    spent = 0.0
    while True:
        rounds.append(run_round(jobs, out / f"{tag}{len(rounds)}", timer))
        spent += rounds[-1]["measured_s"]
        if spent + 0.5 * spent / len(rounds) >= budget:
            return rounds


def check_rounds(rounds: list[dict]) -> tuple[list[str], list[float]]:
    """All output checks over every round; also each round's utility ratio:
    the lowest mean utility / U_opt among the fair policies run."""
    fails: list[str] = []
    refs: dict[str, Reference] = {}

    def reference(n, k, oracle, sample_counts) -> Reference:
        key = json.dumps([n, k, oracle, sample_counts], sort_keys=True)
        if key not in refs:
            refs[key] = Reference(n, k, oracle, sample_counts)
        return refs[key]

    ratios = []
    for rnd in rounds:
        with open(rnd["checks"], "rb") as fh:
            records, sweeps = pickle.load(fh)
        ratio = float("inf")
        for rec in records:
            ref = reference(rec.n, rec.k, rec.oracle, rec.sample_counts)
            fails += check_run(rec, ref)
            if rec.out_dir is not None:
                fails += check_written(rec)
            if rec.policy in FAIR_POLICIES:
                ratio = min(ratio, rec.mean_utility / ref.u_opt(rec.floors))
        for cfg, rows, out_dir in sweeps:
            ref = reference(cfg.n, cfg.k, cfg.oracle, cfg.sample_counts)
            fails += check_sweep(rows, out_dir, records, ref, cfg.sweep_betas, cfg.fairness_base)
        ratios.append(ratio)
    return fails, ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    jobs = make_jobs(args.workload, args.seed)
    for job in jobs:
        check_resolved(job, fconfig.parse_config(job.raw, profile=job.profile))

    timer = PolicyTimer(runner.execute_run, args.workload)
    runner.execute_run = timer
    run_round(warmup_jobs(jobs), args.out / "warmup", timer)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = timed_rounds(jobs, budget, args.out, timer, "round")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_rounds(jobs, budget, args.out, timer, "traced")
        finally:
            tracer.uninstall()

    fails, ratios = check_rounds(plain + traced)
    for line in fails:
        print(f"check failed: {line}", file=sys.stderr)
    for r in plain + traced:
        print(
            "round: "
            + json.dumps({k: r[k] for k in ("measured_s", "factor", "total_s", "run_s")}),
            file=sys.stderr,
        )

    if args.trace:
        mean_plain = statistics.fmean(r["total_s"] for r in plain)
        mean_traced = statistics.fmean(r["total_s"] for r in traced)
        tracer.save(args.spans)
        metrics = tracer.layer_metrics(len(traced), mean_traced - mean_plain)
    else:
        metrics = {
            "total_s": (statistics.median(r["total_s"] for r in plain), "s"),
            **{
                f"run_s.{p}": (statistics.median(r["run_s"].get(p, 0.0) for r in plain), "s")
                for p in POLICIES
            },
            "write_s": (statistics.median(r["write_s"] for r in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "oracle_queries": (statistics.median(r["oracle_queries"] for r in plain), "count"),
            "utility_ratio": (statistics.median(ratios[: len(plain)]), "ratio"),
        }
    shutil.rmtree(args.out, ignore_errors=True)
    rounds = plain + traced
    print(
        json.dumps(
            {
                "correct": not fails,
                "attempted": sum(r["jobs"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
