"""fairsel benchmark: run one workload, check its outputs, print its figures.

  python3 perfbench/run.py --workload demo-full|wide-exact|sweep-mc \\
      --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src``
there and refuses to run without it. The workload runs in a child process
of its own (job.py), with the BLAS and OpenMP pools pinned to one thread, so
its peak memory is its own. This process and its children stay on one CPU,
so the calibration kernel (calibrate.py) runs on the core it corrects for.
With ``--trace 0`` the last line of stdout holds the end-to-end figures,
set-up time included; with ``--trace 1`` it holds the per-layer figures of a
traced run. Everything the run writes goes under ``.perfbench_runs/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("demo-full", "wide-exact", "sweep-mc")
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170


def pin_environment() -> dict:
    """One thread per BLAS/OpenMP pool and one CPU, for this process and its children."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def setup_seconds(workload: str, seed: int, work: Path, env: dict) -> float:
    """Median time of fresh interpreters that import, parse and build, in
    calibrated seconds (the kernel runs between the probes)."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    from calibrate import Calibration
    from workloads import make_jobs

    job = make_jobs(workload, seed)[0]
    config = work / "setup-config.json"
    config.write_text(json.dumps(job.raw))
    calibration = Calibration()
    times = []
    for _ in range(SETUP_PROBES):
        first = calibration.point()
        started = perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(config), job.profile],
            env=env,
            check=True,
            timeout=60,
        )
        seconds = perf_counter() - started
        times.append(seconds * calibration.factor("python", first, calibration.point()))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairsel" / "__init__.py").is_file():
        print(f"no fairsel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = pin_environment()
    work = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, work, env)
        child = subprocess.run(
            [
                sys.executable,
                str(BENCH / "job.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(work / "out"),
                "--spans", str(RUNS / f"spans-{args.workload}-s{args.seed}.npz"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if not lines:
        print(f"workload process exited with {child.returncode} and no result", file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
