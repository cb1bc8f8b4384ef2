import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairsel import (
    ContractError,
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
from fairsel.rounding import SNAP_EPS
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
    y = np.array((0.7, 0.3, 0.55, 0.45, 1.0, 0.0))
    rng = derive_rng(12, 0)
    trials = 20_000
    # rng.random((trials, n)) is the stream of trials successive
    # dep_round(y, rng) calls
    freq = dep_round_many(y, rng.random((trials, 6))).mean(axis=0)
    # binomial 4-sigma band per coordinate
    tol = 4.0 * np.sqrt(y * (1.0 - y) / trials)
    assert (np.abs(freq - y) <= tol + 1e-12).all()
    assert freq[4] == 1.0 and freq[5] == 0.0


def test_two_worker_frequency_example():
    rng = derive_rng(4, 0)
    selected = dep_round_many((0.5, 0.5), rng.random((100_000, 2)))
    hits = int((selected[:, 0] & ~selected[:, 1]).sum())
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_rounded_value_does_not_fall_below_the_extension():
    # negative correlation: E[f(rounded set)] >= F(y) for submodular f
    rng = np.random.default_rng(44)
    oracle = make_random_oracle(rng, 8, kind="coverage")
    y = (0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.5)
    base = ExtensionEvaluator(oracle).value(y)
    trials = 20_000
    masks = dep_round_many(y, derive_rng(44, 1).random((trials, 8)))
    vals = oracle.evaluate_many(masks)
    sem = float(vals.std() / np.sqrt(trials))
    assert float(vals.mean()) >= base - 3.0 * sem


def test_determinism_per_stream():
    y = (0.3, 0.7, 0.6, 0.4)
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


def test_rounding_snaps_only_within_snap_eps():
    # rounding snaps before it checks the box, so 1 + 5e-10 counts as 1
    y = (1.0 + 5e-10, 0.5, 0.5 - 5e-10)
    rng = derive_rng(3, 0)
    selected = dep_round_many(y, rng.random((1000, 3)))
    assert (selected.sum(axis=1) == 2).all() and selected[:, 0].all()
    assert 0 < selected[:, 1].sum() < 1000
    assert len(dep_round(y, rng)) == 2
    # 1e-8 from a bound is outside SNAP_EPS: the pair stays fractional, and a
    # draw above the cut 1 - 1e-8 takes the rare branch
    rare = dep_round_many((1.0 - 1e-8, 1e-8), np.array([[1.0 - 1e-12, 0.0]]))
    assert rare.tolist() == [[False, True]]


@pytest.mark.parametrize("bad", [float("nan"), 7.0, -3.0, 1.0, -0.5])
def test_draws_outside_the_unit_interval_are_rejected(bad):
    # a NaN or too-large draw would always take the down branch and a
    # negative one the up branch, silently breaking the law
    draws = np.full((4, 3), 0.5)
    draws[2, 1] = bad
    with pytest.raises(ContractError, match=re.escape("draws must lie in [0, 1)")):
        dep_round_many((0.4, 0.8, 0.8), draws)


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
    y = demo_y1.coords
    rows = np.concatenate(
        [derive_draws(s, (ROUND_STREAM,), [t], y.size) for s in range(seeds)]
    )
    selected = dep_round_many(y, rows)
    assert (selected.sum(axis=1) == round(y.sum())).all()
    # two-sided Hoeffding tolerance at failure probability 1e-4 per element
    tol = math.sqrt(math.log(2.0 / 1e-4) / (2.0 * seeds))
    assert np.abs(selected.mean(axis=0) - y).max() <= tol


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
# the kernel against an exact-law reference


def _snap(v):
    """The rounding chain's snap, restated: within SNAP_EPS of 0 or 1 goes onto it."""
    if abs(v) <= SNAP_EPS:
        return 0.0
    if abs(v - 1.0) <= SNAP_EPS:
        return 1.0
    return v


def _pairing_leaves(y):
    """Every leaf of the pairing tree of y, walking both branches of each pairing.

    At a node the first two fractional coordinates i < j pair, with
    a = min(1 - y_i, y_j) and b = min(y_i, 1 - y_j). A draw below the cut
    b / (a + b) raises y_i by a and lowers y_j by a; any other draw lowers y_i
    by b and raises y_j by b; both results are snapped. Yields, per leaf:
    the draw interval [lo, hi) its path takes at each pairing, the ids that
    end at 1, the path's probability, and the total |move| that snapping made
    to each coordinate along the path.
    """
    start = [float(v) for v in y]
    vals = [_snap(v) for v in start]
    drift = np.abs(np.array(vals) - np.array(start))
    stack = [(vals, [], 1.0, drift)]
    while stack:
        vals, intervals, prob, drift = stack.pop()
        frac = [u for u, v in enumerate(vals) if v not in (0.0, 1.0)]
        if not frac:
            yield intervals, [u for u, v in enumerate(vals) if v == 1.0], prob, drift
            continue
        i, j = frac[:2]
        a = min(1.0 - vals[i], vals[j])
        b = min(vals[i], 1.0 - vals[j])
        cut = b / (a + b)
        for lo, hi, p, move_i, move_j in ((0.0, cut, cut, a, -a), (cut, 1.0, 1.0 - cut, -b, b)):
            nxt = list(vals)
            moved = drift.copy()
            for u, raw in ((i, vals[i] + move_i), (j, vals[j] + move_j)):
                nxt[u] = _snap(raw)
                moved[u] += abs(nxt[u] - raw)
            stack.append((nxt, intervals + [(lo, hi)], prob * p, moved))


def _leaf_rows(leaves, n):
    """One draw row per leaf: the midpoint of its interval at each pairing
    (pairing p reads draw p), and 0.0 for the draws its path never reads."""
    rows = np.zeros((len(leaves), n))
    for row, (intervals, *_) in zip(rows, leaves):
        for p, (lo, hi) in enumerate(intervals):
            row[p] = 0.5 * (lo + hi)
    return rows


def _paired_point(rng, pairs, integral):
    """Coordinates p, 1 - p for each pair plus exact 0s and 1s, shuffled: the
    sum is integral up to float rounding, as dep_round requires."""
    p = rng.uniform(0.0, 1.0, pairs)
    coords = np.concatenate([p, 1.0 - p, rng.integers(0, 2, integral).astype(float)])
    return coords[rng.permutation(coords.size)]


@st.composite
def _rounding_points(draw):
    """A point of 1-10 coordinates with integral sum: a water-filled vertex
    of a random polytope, paired coordinates, or an integral point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(("polytope", "paired", "integral")))
    if form == "polytope":
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, n + 1))
        pool = WorkerPool(n=n, k=k, fairness=make_random_floors(rng, n, k))
        y = maximize_linear(pool, rng.uniform(0.0, 2.0, n))
    elif form == "paired":
        pairs = int(rng.integers(1, 6))
        y = _paired_point(rng, pairs, int(rng.integers(0, 11 - 2 * pairs)))
    else:
        y = rng.integers(0, 2, int(rng.integers(1, 11))).astype(float)
    return tuple(y.tolist())


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(y=_rounding_points())
# integral points: one leaf, no pairing
@example(y=(1.0,))
@example(y=(0.0, 1.0, 1.0, 0.0, 1.0))
# coordinates within SNAP_EPS of a bound, inside and outside the box
@example(y=(1.0 + 5e-10, 0.5, 0.5 - 5e-10))
@example(y=(5e-10, 0.3, 1.0 - 5e-10, 0.7 - 2e-10))
@example(y=(-9e-10, 0.25, 0.75, 1.0 + 9e-10, 1e-300))
def test_dep_round_many_follows_the_pairing_tree(y):
    leaves = list(_pairing_leaves(y))
    n = len(y)
    sets = np.zeros((len(leaves), n), dtype=bool)
    for row, (_, selected, _, _) in zip(sets, leaves):
        row[selected] = True
    # the kernel maps each leaf's draws to that leaf's set
    assert np.array_equal(dep_round_many(y, _leaf_rows(leaves, n)), sets)
    # and the leaves carry the law: a distribution over sets of size k whose
    # marginals are y, up to the mass the snaps moved on the way
    probs = np.array([prob for _, _, prob, _ in leaves])
    drift = probs @ np.array([moved for _, _, _, moved in leaves])
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert (np.abs(probs @ sets - np.array(y)) <= 1e-12 + drift).all()
    assert (sets.sum(axis=1) == round(sum(y))).all()


_CONTRACT_MESSAGES = {
    (0.5, 0.2): "coordinate sum 0.7 is not within 1e-9 of an integer",
    (0.5, 1.2): "point coordinate 1 = 1.2 outside [0, 1]",
    (0.3, 0.7, -0.4, 0.4): "point coordinate 2 = -0.4 outside [0, 1]",
}


@pytest.mark.parametrize("y", list(_CONTRACT_MESSAGES))
def test_dep_round_many_raises_the_scalar_contract_errors(y):
    # dep_round is one row of dep_round_many, so both raise the same error
    message = re.escape(_CONTRACT_MESSAGES[y])
    with pytest.raises(ContractError, match=message):
        dep_round_many(y, np.full((3, len(y)), 0.5))
    with pytest.raises(ContractError, match=message):
        dep_round(y, derive_rng(0, 0))
    with pytest.raises(ContractError):
        dep_round_many((0.5, 0.5), np.full((3, 3), 0.5))  # draws of the wrong width
    with pytest.raises(ContractError, match="1-d"):
        dep_round_many([y], np.full((3, len(y)), 0.5))


def test_faircg_rounds_across_a_block_boundary_like_the_pairing_tree():
    # the pinned digest runs stay inside one TRACE_BLOCK; this one crosses it
    horizon = TRACE_BLOCK + 13
    cfg = parse_config(demo_config(policy="faircg1", horizon=horizon, master_seed=5))
    result = execute_run(cfg)
    shift = derive_rng(5, ROUND_STREAM).random(cfg.n)
    rows = np.mod(shift + np.arange(horizon)[:, None] * kronecker_alpha(cfg.n), 1.0)
    # each round's set is that of the one leaf whose draw intervals hold its row
    expected = np.zeros((horizon, cfg.n), dtype=bool)
    claimed = np.zeros(horizon, dtype=int)
    for intervals, selected, _, _ in _pairing_leaves(result.greedy.y1.coords):
        hit = np.ones(horizon, dtype=bool)
        for p, (lo, hi) in enumerate(intervals):
            hit &= (rows[:, p] >= lo) & (rows[:, p] < hi)
        expected[np.ix_(hit, selected)] = True
        claimed += hit
    assert (claimed == 1).all()
    assert np.array_equal(result.trace.selected, expected)
