import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsel import (
    ContractError,
    FractionalPoint,
    WorkerPool,
    dep_round,
    dep_round_many,
    derive_draws,
    derive_rng,
    faircg1_fractional,
    maximize_linear,
)
from fairsel.config import parse_config
from fairsel.core import kronecker_alpha
from fairsel.metrics import TRACE_BLOCK
from fairsel.multilinear import ExtensionEvaluator
from fairsel.presets import demo_config
from fairsel.runner import ROUND_STREAM, execute_run

from conftest import make_random_floors, make_random_oracle


class _ScriptedRng:
    """Stands in for a numpy Generator; returns pre-chosen uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, n):
        out = np.array(self._draws[:n], dtype=float)
        self._draws = self._draws[n:]
        return out


def test_integral_input_passes_through():
    rng = derive_rng(0, 1)
    assert dep_round((1.0, 0.0, 1.0, 0.0), rng) == (0, 2)


def test_two_coordinate_branches():
    # y=(0.5,0.5): a=b=0.5, draw below b/(a+b)=0.5 raises the first coordinate
    assert dep_round((0.5, 0.5), _ScriptedRng([0.2, 0.0])) == (0,)
    assert dep_round((0.5, 0.5), _ScriptedRng([0.8, 0.0])) == (1,)


def test_three_coordinate_scripted_path():
    # pair (0,1): a=0.6, b=0.2, draw 0.1 < 0.25 so y0 -> 1.0, y1 -> 0.2;
    # pair (1,2): a=0.8, b=0.2, draw 0.9 >= 0.2 so y1 -> 0.0, y2 -> 1.0
    sel = dep_round((0.4, 0.8, 0.8), _ScriptedRng([0.1, 0.9, 0.0]))
    assert sel == (0, 2)


def test_output_size_always_matches_the_sum():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        y = maximize_linear(pool, rng.uniform(0.0, 2.0, n))
        sel = dep_round(y, rng)
        assert len(sel) == k
        assert sel == tuple(sorted(sel))
        assert all(0 <= u < n for u in sel)


def test_marginals_are_preserved():
    y = FractionalPoint((0.7, 0.3, 0.55, 0.45, 1.0, 0.0))
    rng = derive_rng(12, 0)
    trials = 20_000
    counts = np.zeros(6)
    for _ in range(trials):
        for u in dep_round(y, rng):
            counts[u] += 1
    freq = counts / trials
    # binomial 4-sigma band per coordinate
    tol = 4.0 * np.sqrt(y.coords * (1.0 - y.coords) / trials)
    assert (np.abs(freq - y.coords) <= tol + 1e-12).all()
    assert freq[4] == 1.0 and freq[5] == 0.0


def test_two_worker_frequency_example():
    y = FractionalPoint((0.5, 0.5))
    rng = derive_rng(4, 0)
    hits = sum(dep_round(y, rng) == (0,) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_rounded_value_does_not_fall_below_the_extension():
    # negative correlation: E[f(rounded set)] >= F(y) for submodular f
    rng = np.random.default_rng(44)
    oracle = make_random_oracle(rng, 8, kind="coverage")
    y = FractionalPoint((0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.5))
    base = ExtensionEvaluator(oracle).value(y)
    draws = derive_rng(44, 1)
    trials = 20_000
    masks = np.zeros((trials, 8), dtype=bool)
    for t in range(trials):
        masks[t, list(dep_round(y, draws))] = True
    vals = oracle.evaluate_many(masks)
    sem = float(vals.std() / np.sqrt(trials))
    assert float(vals.mean()) >= base - 3.0 * sem


def test_determinism_per_stream():
    y = FractionalPoint((0.3, 0.7, 0.6, 0.4))
    run1 = [dep_round(y, derive_rng(9, 5, t)) for t in range(50)]
    run2 = [dep_round(y, derive_rng(9, 5, t)) for t in range(50)]
    assert run1 == run2
    run3 = [dep_round(y, derive_rng(10, 5, t)) for t in range(50)]
    assert run1 != run3


def test_contract_errors():
    rng = derive_rng(0, 0)
    with pytest.raises(ContractError):
        dep_round((0.5, 0.2), rng)  # sum 0.7 not integral
    with pytest.raises(ContractError):
        dep_round((0.5, 1.2), rng)  # outside the unit box


# ---------------------------------------------------------------------------
# the shifted Kronecker draws


@pytest.fixture(scope="module")
def demo_y1(demo):
    pool, oracle = demo
    return faircg1_fractional(pool, ExtensionEvaluator(oracle)).y1


@pytest.mark.parametrize("t", [0, 4097, 99_999])
def test_each_round_of_the_draws_rounds_with_dep_rounds_law(demo_y1, t):
    # across master seeds round t's row is uniform, so the sets have size k
    # and hit worker u with probability y1_u; without the random shift every
    # seed would draw the same row and the same set
    seeds = 4000
    rows = np.concatenate(
        [derive_draws(s, (ROUND_STREAM,), [t], demo_y1.n) for s in range(seeds)]
    )
    selected = dep_round_many(demo_y1, rows)
    assert (selected.sum(axis=1) == round(demo_y1.sum())).all()
    # two-sided Hoeffding tolerance at failure probability 1e-4 per element
    tol = math.sqrt(math.log(2.0 / 1e-4) / (2.0 * seeds))
    assert np.abs(selected.mean(axis=0) - demo_y1.coords).max() <= tol


def _plastic_number() -> Decimal:
    """The real root of x^3 = x + 1, by Newton's method in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal("1.3")
        for _ in range(60):
            x -= (x**3 - x - 1) / (3 * x**2 - 1)
        return +x


def test_kronecker_alpha_is_the_golden_ratio_and_plastic_number_sequence():
    with localcontext() as ctx:
        ctx.prec = 40
        golden = (1 + Decimal(5).sqrt()) / 2
        plastic = _plastic_number()
        expected = {1: [1 / golden], 2: [1 / plastic, 1 / plastic**2]}
    for n, powers in expected.items():
        alpha = kronecker_alpha(n)
        assert alpha.shape == (n,)
        for got, want in zip(alpha.tolist(), powers):
            assert abs(got - float(want)) <= math.ulp(float(want))


def test_draws_lie_in_the_unit_interval_and_start_at_the_shift():
    rounds = [0, 1, 4095, 4096, 99_999, 2**31, 2**40]
    for seed, n in ((0, 1), (7, 10), (2**64 + 3, 40)):
        draws = derive_draws(seed, (ROUND_STREAM,), rounds, n)
        assert draws.shape == (len(rounds), n)
        assert ((draws >= 0.0) & (draws < 1.0)).all()
        assert np.array_equal(draws[0], derive_rng(seed, ROUND_STREAM).random(n))
    assert derive_draws(3, (11,), [], 4).shape == (0, 4)


# ---------------------------------------------------------------------------
# the batched kernels against their scalar references


def _scripted_rounds(y, draws):
    """dep_round once per row of draws, as a boolean matrix."""
    out = np.zeros(draws.shape, dtype=bool)
    for row, d in zip(out, draws):
        row[list(dep_round(y, _ScriptedRng(d)))] = True
    return out


def _paired_point(rng, pairs, integral):
    """Coordinates p, 1 - p for each pair plus exact 0s and 1s, shuffled: the
    sum is integral up to float rounding, as dep_round requires."""
    p = rng.uniform(0.0, 1.0, pairs)
    coords = np.concatenate([p, 1.0 - p, rng.integers(0, 2, integral).astype(float)])
    return coords[rng.permutation(coords.size)]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(("polytope", "paired", "integral")),
    rows=st.integers(1, 40),
)
def test_dep_round_many_equals_dep_round_row_for_row(seed, form, rows):
    rng = np.random.default_rng(seed)
    if form == "polytope":
        n = int(rng.integers(1, 16))
        k = int(rng.integers(1, n + 1))
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        y = maximize_linear(pool, rng.uniform(0.0, 2.0, n))
    elif form == "paired":
        y = _paired_point(rng, int(rng.integers(1, 7)), int(rng.integers(0, 6)))
    else:
        y = rng.integers(0, 2, int(rng.integers(1, 12))).astype(float)
    draws = rng.random((rows, len(y)))
    assert np.array_equal(dep_round_many(y, draws), _scripted_rounds(y, draws))


@pytest.mark.parametrize("y", [(0.5, 0.2), (0.5, 1.2), (0.3, 0.7, -0.4, 0.4)])
def test_dep_round_many_raises_the_scalar_contract_errors(y):
    draws = np.full((3, len(y)), 0.5)
    with pytest.raises(ContractError) as scalar:
        dep_round(y, _ScriptedRng(draws[0]))
    with pytest.raises(ContractError) as batched:
        dep_round_many(y, draws)
    assert str(batched.value) == str(scalar.value)
    with pytest.raises(ContractError):
        dep_round_many((0.5, 0.5), np.full((3, 3), 0.5))  # draws of the wrong width


def test_faircg_rounds_across_a_block_boundary_like_the_scalar_loop():
    # the pinned digest runs stay inside one TRACE_BLOCK; this one crosses it
    horizon = TRACE_BLOCK + 13
    cfg = parse_config(demo_config(policy="faircg1", horizon=horizon, master_seed=5))
    result = execute_run(cfg)
    y = result.greedy.y1
    shift = derive_rng(5, ROUND_STREAM).random(cfg.n)
    alpha = kronecker_alpha(cfg.n)
    expected = np.zeros((horizon, cfg.n), dtype=bool)
    for t in range(horizon):
        row = np.mod(shift + t * alpha, 1.0)
        expected[t, list(dep_round(y, _ScriptedRng(row)))] = True
    assert np.array_equal(result.trace.selected, expected)
