import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fairsel import (
    ModularOracle,
    SimplexTableau,
    SizeLimitError,
    WorkerPool,
    solve_uopt,
)
from fairsel.presets import demo_fairness

from conftest import brute_force_uopt, make_random_floors, make_random_oracle

# stationary optimum of the bundled instance at beta=0.42, frozen after an
# independent recomputation with scipy's HiGHS over the same 210 subsets
DEMO_UOPT = 0.8514186070650804


def test_forced_distribution_example():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.5, 0.5]))
    sol = solve_uopt(pool, ModularOracle([2.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.u_opt == pytest.approx(1.5, abs=1e-9)
    assert sol.probabilities == pytest.approx([0.5, 0.5], abs=1e-9)


def test_slack_floor_concentrates_on_the_best_set():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.3, 0.0]))
    sol = solve_uopt(pool, ModularOracle([2.0, 1.0]))
    assert sol.u_opt == pytest.approx(2.0, abs=1e-9)
    assert dict(sol.support) == pytest.approx({(0,): 1.0}, abs=1e-9)


def test_infeasible_floors():
    pool = WorkerPool(n=2, k=1, fairness=np.array([0.8, 0.8]))
    oracle = ModularOracle([1.0, 1.0])
    sol = solve_uopt(pool, oracle)
    assert sol.status == "infeasible"
    assert math.isnan(sol.u_opt)
    assert math.isnan(brute_force_uopt(pool, oracle))


def test_zero_floors_give_the_single_round_optimum():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        oracle = make_random_oracle(rng, n)
        pool = WorkerPool(n=n, k=k, fairness=np.zeros(n))
        best = max(
            oracle.evaluate(s) for s in itertools.combinations(range(n), k)
        )
        assert solve_uopt(pool, oracle).u_opt == pytest.approx(best, abs=1e-9)


def test_optimum_is_nonincreasing_in_the_floor_scale(demo):
    _, oracle = demo
    values = []
    for beta in (0.0, 0.2, 0.42, 0.6):
        pool = WorkerPool(n=10, k=6, fairness=demo_fairness(beta))
        values.append(solve_uopt(pool, oracle).u_opt)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_demo_value_frozen_and_independently_recomputed(demo):
    pool, oracle = demo
    sol = solve_uopt(pool, oracle)
    assert sol.u_opt == pytest.approx(DEMO_UOPT, abs=1e-9)

    # independent route: same LP through scipy (HiGHS), no shared code
    assert sol.u_opt == pytest.approx(brute_force_uopt(pool, oracle), abs=1e-9)


def test_solution_is_a_fair_distribution(demo):
    pool, oracle = demo
    sol = solve_uopt(pool, oracle)
    assert sol.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert (sol.probabilities >= -1e-12).all()
    assert (sol.subsets.T @ sol.probabilities >= pool.fairness - 1e-9).all()
    assert all(len(s) == 6 for s, _ in sol.support)


def test_subsets_are_one_read_only_bool_matrix_in_combinations_order():
    pool = WorkerPool(n=5, k=2, fairness=np.full(5, 0.3))
    sol = solve_uopt(pool, ModularOracle([0.5, 0.1, 0.9, 0.3, 0.7]))
    assert sol.subsets.dtype == bool and sol.subsets.shape == (10, 5)
    assert [tuple(np.flatnonzero(row)) for row in sol.subsets] == list(
        itertools.combinations(range(5), 2)
    )
    assert not sol.subsets.flags.writeable
    keep = sol.probabilities > 1e-10
    assert [ids for ids, _ in sol.support] == [
        tuple(np.flatnonzero(row)) for row in sol.subsets[keep]
    ]
    assert [p for _, p in sol.support] == sol.probabilities[keep].tolist()


def test_strong_duality_on_the_demo(demo):
    pool, oracle = demo
    sol = solve_uopt(pool, oracle)
    # equality-form LP: dual objective y.b equals the primal optimum
    b = np.append(pool.fairness, 1.0)
    assert float(sol.duals @ b) == pytest.approx(-sol.u_opt, abs=1e-7)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        oracle = make_random_oracle(rng, n)
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        mine = solve_uopt(pool, oracle).u_opt
        ref = brute_force_uopt(pool, oracle)
        assert mine == pytest.approx(ref, abs=1e-6)


def test_size_caps():
    oracle = ModularOracle(np.ones(10))
    pool = WorkerPool(n=10, k=5, fairness=np.zeros(10))
    with pytest.raises(SizeLimitError):
        solve_uopt(pool, oracle, subset_cap=100)  # C(10,5)=252 > 100


def test_simplex_on_tiny_programs():
    # max x0+x1 st x0+x1 <= 1 as min -x0-x1 with a slack column
    t = SimplexTableau(a=[[1.0, 1.0, 1.0]], b=[1.0], c=[-1.0, -1.0, 0.0])
    assert t.solve() == "optimal"
    assert t.objective == pytest.approx(-1.0, abs=1e-12)
    assert t.solution.sum() == pytest.approx(1.0, abs=1e-12)

    # infeasible: x0 + x1 = -1 with x >= 0 (b is flipped internally)
    t = SimplexTableau(a=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 1.0])
    assert t.solve() == "infeasible"

    # redundant row: duplicated constraint still solves, dual of dropped row 0
    t = SimplexTableau(
        a=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], b=[1.0, 2.0], c=[-1.0, -2.0, 0.0]
    )
    assert t.solve() == "optimal"
    assert t.objective == pytest.approx(-2.0, abs=1e-12)
    # row 1 is dropped without having been a pivot row: its dual is zero
    assert t.duals.tolist() == pytest.approx([-2.0, 0.0], abs=1e-12)

    # a row entered with b < 0: the duals belong to the system as given
    t = SimplexTableau(a=[[-1.0, -1.0]], b=[-1.0], c=[1.0, 2.0])
    assert t.solve() == "optimal"
    assert t.objective == pytest.approx(1.0, abs=1e-12)
    assert t.duals.tolist() == pytest.approx([-1.0], abs=1e-12)


def test_simplex_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        SimplexTableau(a=[[1.0, 2.0]], b=[1.0, 2.0], c=[1.0, 2.0])


def test_simplex_matches_scipy_on_random_equality_lps():
    from scipy.optimize import linprog

    rng = np.random.default_rng(53)
    solved = 0
    for _ in range(40):
        m = int(rng.integers(1, 5))
        nc = int(rng.integers(m, m + 6))
        a = rng.uniform(-1.0, 2.0, (m, nc))
        x_feas = rng.uniform(0.0, 1.0, nc)
        b = a @ x_feas  # guarantees feasibility
        c = rng.uniform(-1.0, 1.0, nc)
        ref = linprog(c=c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
        mine = SimplexTableau(a, b, c)
        if not ref.success:  # unbounded below; the tableau raises instead
            with pytest.raises(RuntimeError):
                mine.solve()
            continue
        assert mine.solve() == "optimal"
        assert mine.objective == pytest.approx(float(ref.fun), abs=1e-7)
        solved += 1
    assert solved >= 20  # the comparison actually exercised real programs


def test_duals_certify_the_optimum_with_negated_and_duplicated_rows():
    # duals.b equals the objective and c - duals.A >= 0 over every row as
    # given: rows with b < 0 (negated inside the tableau) and the row that
    # duplicates row 0, which phase one drops as redundant, included
    rng = np.random.default_rng(71)
    negated = 0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        nc = int(rng.integers(m + 1, m + 8))
        a = rng.uniform(-1.0, 2.0, (m, nc))
        b = a @ rng.uniform(0.0, 1.0, nc)
        flip = rng.random(m) < 0.5
        a[flip] *= -1.0
        b[flip] *= -1.0
        dup = int(rng.integers(1, m))
        a[dup], b[dup] = -3.0 * a[0], -3.0 * b[0]
        c = rng.uniform(0.0, 1.0, nc)  # c >= 0 keeps every program bounded
        t = SimplexTableau(a, b, c)
        assert t.solve() == "optimal"
        assert float(t.duals @ b) == pytest.approx(t.objective, abs=1e-9)
        assert (c - t.duals @ a >= -1e-9).all()
        negated += bool((b < 0).any())
    assert negated >= 150


def test_solve_peak_memory_stays_near_one_tableau():
    # C(14,7) = 3432 subset columns; the tableau has n + 2 rows and one
    # column per subset, surplus, artificial and the right-hand side
    n, k = 14, 7
    pool = WorkerPool(n=n, k=k, fairness=np.full(n, 0.3 * k / n))
    oracle = ModularOracle(np.linspace(0.1, 1.0, n))
    tableau_bytes = (n + 2) * (math.comb(n, k) + 2 * n + 2) * 8
    tracemalloc.start()
    try:
        sol = solve_uopt(pool, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= 3 * tableau_bytes
