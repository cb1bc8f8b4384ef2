"""End-to-end acceptance checks for the full deliverable.

One test per criterion; each prints a single PASS/FAIL line (visible under
`pytest tests/test_acceptance.py -v -s`) and asserts it. The expensive demo
runs (horizon 10^5) are session fixtures shared across criteria. Everything
here is seeded, so every number is frozen and reruns are byte-stable.
"""
import hashlib
import json
import math

import numpy as np
import pytest

from fairsel import (
    AccuracyOracle,
    CoverageOracle,
    DebtLedger,
    FeasibilityError,
    ModularOracle,
    SelectionTrace,
    WorkerPool,
    dep_round_many,
    derive_rng,
    fairdg_round,
    maximize_linear,
    solve_uopt,
)
from fairsel.cli import main
from fairsel.config import parse_config
from fairsel.discrete import round_robin_policy
from fairsel.metrics import concession_rate
from fairsel.multilinear import ExtensionEstimator, ExtensionEvaluator
from fairsel.presets import DEMO_BETAS, demo_config, demo_oracle
from fairsel.runner import execute_run, run_sweep

from conftest import (
    brute_force_uopt,
    exact_mean_sigma,
    make_random_floors,
    make_random_oracle,
    water_fill_brute,
)

ACCEPT_HORIZON = 100_000
FAIR_POLICIES = ("faircg1", "faircg2", "fairdg")
ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e


def _criterion(num, label, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def accept_runs():
    """The four demo-instance runs at the acceptance horizon, shared."""
    runs = {}
    for policy in ("faircg1", "faircg2", "fairdg", "dg"):
        cfg = parse_config(demo_config(policy=policy, horizon=ACCEPT_HORIZON))
        runs[policy] = execute_run(cfg)
    return runs


def test_criterion_01_time_average_near_optimal(accept_runs):
    u_opt = accept_runs["faircg1"].lp.u_opt
    ratios = {
        p: accept_runs[p].trace.mean_utility() / u_opt for p in FAIR_POLICIES
    }
    ok = all(abs(v - 1.0) <= 0.015 for v in ratios.values())
    detail = " ".join(f"{p}={v:.5f}" for p, v in ratios.items())
    _criterion(1, "time-average utility within 1.5% of the stationary optimum", ok, detail)


def test_criterion_02_fairness_floors_met_and_greedy_flagged(accept_runs):
    fair_ok = all(accept_runs[p].fairness.all_satisfied for p in FAIR_POLICIES)
    dg_unsat = accept_runs["dg"].fairness.unsatisfied_ids
    dg_ok = dg_unsat == (0, 4, 8, 9)
    worst = min(
        float(
            (accept_runs[p].fairness.fractions - accept_runs[p].fairness.requirements).min()
        )
        for p in FAIR_POLICIES
    )
    _criterion(
        2,
        "fair policies meet every floor at 1e-3; greedy flags exactly the excluded workers",
        fair_ok and dg_ok,
        f"worst fraction-floor gap {worst:+.5f}, greedy unsatisfied {dg_unsat}",
    )


def test_criterion_03_debt_scheduler_stays_within_one_selection():
    pool = WorkerPool(n=10, k=6, fairness=np.full(10, 0.5))
    oracle = demo_oracle()
    ledger = DebtLedger.fresh(10)
    selected = np.zeros((ACCEPT_HORIZON, 10), dtype=bool)
    for t in range(ACCEPT_HORIZON):
        selected[t, fairdg_round(pool, oracle, ledger)] = True
    trace = SelectionTrace(selected, np.zeros(ACCEPT_HORIZON))
    worst = float(trace.max_debt(pool.fairness).max())
    _criterion(
        3,
        "debt scheduler keeps every homogeneous-floor debt strictly below one",
        worst < 1.0,
        f"max debt over 1e5 rounds = {worst}",
    )


def test_criterion_04_variant_one_value_floor(accept_runs, certificate_instances):
    shortfalls = []
    for inst in certificate_instances:
        bound = ONE_MINUS_1_OVER_E * inst["u_opt"]
        shortfalls.append(inst["res1"].value - bound)
    cert = accept_runs["faircg1"].certificates
    shortfalls.append(cert.extension_value - cert.variant_one_bound)
    worst = min(shortfalls)
    ok = worst >= -1e-3 and cert.variant_one_ok
    _criterion(
        4,
        "variant-one value beats (1-1/e)*optimum on 20 random instances plus the demo",
        ok,
        f"worst margin {worst:+.5f} over {len(shortfalls)} instances",
    )


def test_criterion_05_variant_two_value_floor(accept_runs, certificate_instances):
    shortfalls = []
    for inst in certificate_instances:
        c_r = concession_rate(inst["pool"])
        decay = math.exp(-c_r)
        bound = (1.0 - decay) * inst["u_opt"] + inst["f_of_r"] * decay
        shortfalls.append(inst["res2"].value - bound)
    cert = accept_runs["faircg2"].certificates
    shortfalls.append(cert.extension_value - cert.variant_two_bound)
    worst = min(shortfalls)
    demo_c_r_exact = abs(cert.c_r - 0.3) <= 1e-12
    ok = worst >= -1e-3 and cert.variant_two_ok and demo_c_r_exact
    _criterion(
        5,
        "variant-two value beats its concession-rate bound; demo rate equals 0.3",
        ok,
        f"worst margin {worst:+.5f}, demo c_r {cert.c_r!r}",
    )


def test_criterion_06_floor_scale_sweep():
    rows = run_sweep(parse_config(demo_config(policy="faircg1")))
    assert all(row.status == "ok" for row in rows)
    cg2 = [row for row in rows if row.policy == "faircg2"]
    assert [row.beta for row in cg2] == list(DEMO_BETAS)
    monotone = all(
        b.bound_ratio >= a.bound_ratio - 1e-12 for a, b in zip(cg2, cg2[1:])
    )
    above = all(
        row.bound_ratio > ONE_MINUS_1_OVER_E for row in cg2 if row.beta >= 0.299
    )
    min_ratio = min(row.empirical_ratio for row in rows)
    ok = monotone and above and min_ratio >= 0.95
    _criterion(
        6,
        "variant-two bound ratio grows with the floor scale; all empirical ratios high",
        ok,
        f"bound ratio {cg2[0].bound_ratio:.4f}->{cg2[-1].bound_ratio:.4f}, "
        f"min empirical {min_ratio:.4f}",
    )


def test_criterion_07_rounding_degree_and_marginals(accept_runs):
    y = accept_runs["faircg1"].greedy.y1
    k = 6
    calls = 1_000_000
    block = 100_000
    rng = derive_rng(20_240_817, 0)
    counts = np.zeros(10)
    size_violations = 0
    # rng.random((rows, n)) is the stream of rows successive rng.random(n)
    # calls, so each block is what that many dep_round(y, rng) calls would draw
    for _ in range(calls // block):
        selected = dep_round_many(y, rng.random((block, y.n)))
        size_violations += int((selected.sum(axis=1) != k).sum())
        counts += selected.sum(axis=0)
    # two-sided Hoeffding tolerance at failure probability 1e-4 per element
    tol = math.sqrt(math.log(2.0 / 1e-4) / (2.0 * calls))
    deviation = float(np.abs(counts / calls - y.coords).max())
    ok = size_violations == 0 and deviation <= tol
    _criterion(
        7,
        "rounded sets always have size k; per-element frequencies track the point",
        ok,
        f"size violations {size_violations}, max |freq - y| {deviation:.5f} vs tol {tol:.5f}",
    )


def test_faircg_counts_track_the_rounded_point_over_the_horizon(accept_runs):
    # the shifted Kronecker draws keep each worker's count N_u(T) close to
    # y1_u * T; over seeds 0-44 the largest deviation measured was 127, and
    # independent draws per round gave 251 (faircg1) and 291 (faircg2) here
    for policy in ("faircg1", "faircg2"):
        run = accept_runs[policy]
        counts = run.trace.selected.sum(axis=0)
        deviation = float(np.abs(counts - run.greedy.y1.coords * ACCEPT_HORIZON).max())
        assert deviation <= 150, f"{policy}: max_u |N_u(T) - y1_u T| = {deviation:.1f}"


def test_criterion_08_equivalence_suites(accept_runs, certificate_instances):
    # (a) water filling against an independent vertex enumeration
    rng = np.random.default_rng(808)
    worst_a = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        r = make_random_floors(rng, n, k)
        w = rng.uniform(0.0, 2.0, n)
        if trial % 4 == 0:
            w = np.round(w, 1)
        pool = WorkerPool(n=n, k=k, fairness=r)
        mine = float(w @ maximize_linear(pool, w))
        worst_a = max(worst_a, abs(mine - water_fill_brute(r, k, w)))
    pass_a = worst_a <= 1e-9

    # (b) the in-house simplex against scipy on the stationary LP
    rng = np.random.default_rng(818)
    worst_b = 0.0
    infeasible_pairs = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        oracle = make_random_oracle(rng, n)
        if trial % 10 == 9:
            # deliberately infeasible: every floor above k/n keeps sum(r) > k
            k = min(k, n - 1)
            r = rng.uniform((k + 0.2) / n, 1.0, n)
        else:
            r = make_random_floors(rng, n, k)
        pool = WorkerPool(n=n, k=k, fairness=r)
        mine = solve_uopt(pool, oracle).u_opt
        ref = brute_force_uopt(pool, oracle)
        if math.isnan(ref):
            assert math.isnan(mine)
            infeasible_pairs += 1
        else:
            worst_b = max(worst_b, abs(mine - ref))
    pass_b = worst_b <= 1e-6 and infeasible_pairs >= 5

    # (c) sampled extension inside three-sigma bands of the exact one,
    # fifty seeds on each of the three oracle families; mid-box points with
    # light-tailed value distributions, so the normalized error is actually
    # normal at this sample size and the band is a fair test
    rng = np.random.default_rng(5)
    band_instances = [
        (
            CoverageOracle(
                8,
                rng.uniform(0.2, 1.5, 12),
                [rng.choice(12, size=3, replace=False) for _ in range(8)],
            ),
            np.linspace(0.25, 0.75, 8),
        ),
        (AccuracyOracle(rng.uniform(100, 900, 9)), np.full(9, 0.35)),
        (ModularOracle(rng.uniform(0.1, 1.0, 10)), np.linspace(0.1, 0.9, 10)),
    ]
    samples = 20_000
    worst_z = 0.0
    for oracle, y in band_instances:
        exact, sigma = exact_mean_sigma(oracle, y)
        for seed in range(50):
            estimator = ExtensionEstimator(mode="monte_carlo", samples=samples, seed=seed)
            est = ExtensionEvaluator(oracle, estimator).value(y)
            worst_z = max(worst_z, abs(est - exact) / (sigma / math.sqrt(samples)))
    pass_c = worst_z <= 3.0

    # (d) per-step audit: the chosen direction's linear gain covers the gap
    # to the stationary optimum at every step, exact mode
    min_slack = math.inf
    audits = []
    for inst in certificate_instances:
        audits.append((inst["u_opt"], inst["res1"]))
        audits.append((inst["u_opt"], inst["res2"]))
    for policy in ("faircg1", "faircg2"):
        run = accept_runs[policy]
        audits.append((run.lp.u_opt, run.greedy))
    for u_opt, res in audits:
        for step in res.steps:
            min_slack = min(min_slack, step.linear_gain - (u_opt - step.extension_value))
    pass_d = min_slack >= -1e-6

    ok = pass_a and pass_b and pass_c and pass_d
    _criterion(
        8,
        "equivalence suites: water filling, LP dual-route, sampling bands, step audit",
        ok,
        f"a:max|diff|={worst_a:.2e} b:max|diff|={worst_b:.2e} "
        f"c:worst_z={worst_z:.2f} d:min_slack={min_slack:+.2e}",
    )


def test_criterion_09_feasibility_iff_schedulable():
    horizon = 10_000
    rng = np.random.default_rng(909)
    feasible_seen = 0
    infeasible_seen = 0
    worst_gap = math.inf
    while feasible_seen + infeasible_seen < 500:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        raw = rng.uniform(0.0, 1.0, n)
        target = k * float(rng.uniform(0.3, 1.3))
        r = np.minimum(raw * (target / raw.sum()), 1.0)
        gap = float(r.sum()) - k
        if gap <= 0.0:
            # feasible side: the schedule must exist and meet every floor
            # up to the 1/T rounding allowance
            pool = WorkerPool(n=n, k=k, fairness=r)
            assert pool.is_feasible()
            fractions = round_robin_policy(pool, horizon).mean(axis=0)
            shortfall = float((fractions - (r - 1.0 / horizon)).min())
            worst_gap = min(worst_gap, shortfall)
            assert shortfall >= -1e-12
            feasible_seen += 1
        else:
            if gap * horizon <= n:
                continue  # too close to the boundary for the counting argument
            pool = WorkerPool(n=n, k=k, fairness=r)
            assert not pool.is_feasible()
            with pytest.raises(FeasibilityError):
                round_robin_policy(pool, horizon)
            # no schedule of k-sets can reach every floor at this horizon:
            # hitting fraction >= r_u - 1/T needs ceil(r_u T - 1) picks per
            # worker, and those demands already exceed the k T total supply
            demand = int(np.ceil(r * horizon - 1.0).sum())
            assert demand > k * horizon
            infeasible_seen += 1
    ok = feasible_seen >= 150 and infeasible_seen >= 100
    _criterion(
        9,
        "floor feasibility coincides with round-robin schedulability at 1e4 rounds",
        ok,
        f"{feasible_seen} feasible / {infeasible_seen} infeasible draws, "
        f"worst feasible shortfall {worst_gap:+.2e}",
    )


def _csv_digests(directory):
    out = {}
    for path in sorted(directory.glob("*.csv")):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    run_exact = demo_config(policy="faircg1", horizon=2000)
    run_exact["emit_step_trace"] = True
    run_mc = demo_config(policy="faircg2", horizon=1500)
    run_mc["estimator"] = {"mode": "monte_carlo", "samples": 4000}
    sweep_cfg = demo_config(policy="faircg1", horizon=600)
    sweep_cfg["sweep_betas"] = [0.18, 0.54]
    jobs = [
        ("run", run_exact),
        ("run", run_mc),
        ("opt", demo_config()),
        ("sweep", sweep_cfg),
    ]
    identical = True
    details = []
    for idx, (command, raw) in enumerate(jobs):
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps(raw))
        digests = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{command}{idx}{attempt}"
            assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == 0
            digests.append(_csv_digests(out_dir))
        assert digests[0], f"{command} wrote no CSVs"
        same = digests[0] == digests[1]
        identical = identical and same
        details.append(f"{command}{idx}:{'=' if same else '!'}({len(digests[0])} files)")
    # the check command writes nothing; its stdout must also be stable
    check_path = tmp_path / "check.json"
    check_path.write_text(json.dumps(demo_config()))
    capsys.readouterr()  # drain output from the jobs above
    outs = []
    for _ in range(2):
        assert main(["check", "--config", str(check_path)]) == 0
        outs.append(capsys.readouterr().out)
    identical = identical and outs[0] == outs[1]
    _criterion(
        10,
        "identical config and seed reproduce byte-identical CSV outputs",
        identical,
        " ".join(details),
    )
