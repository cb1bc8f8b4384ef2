"""Output checks computed apart from the program.

The utility of a set, the stationary optimum U_opt and the extension F(y)
are recomputed here from the config alone: own formulas for the accuracy and
coverage oracles, own 2^n enumeration, and scipy's HiGHS for the LP. Nothing
is compared with a stored copy of an earlier output. Each check returns a
list of failure messages; an empty list means the output is correct.

scipy is imported only when the first reference LP is solved, after the
workload process has read its peak memory, so that peak stays the program's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e
# HiGHS at default tolerances sat 7e-9 below the exact optimum at C(16,8);
# this relative tolerance is far wider than that and far tighter than any
# real modelling error
UOPT_RTOL = 1e-7
EXACT_RTOL = 1e-9
# fair policies must reach r_u - Z * sqrt(r_u (1 - r_u) / T) on every worker
FRACTION_Z = 4.0


@dataclass
class RunRecord:
    """What the checks need from one execute_run, taken off its RunResult."""

    policy: str
    n: int
    k: int
    horizon: int
    floors: np.ndarray
    oracle: dict
    sample_counts: tuple | None
    ids: np.ndarray | None  # (T, k) selected ids; None if some round has another size
    utilities: np.ndarray
    mean_utility: float
    fractions: np.ndarray
    y1: np.ndarray | None
    greedy_value: float | None
    greedy_mode: str | None
    u_opt: float | None
    out_dir: Path | None = None


def take_record(result) -> RunRecord:
    """Copy out the compact parts of a RunResult, so the run can be freed."""
    cfg = result.config
    greedy = result.greedy
    try:
        ids = np.array(result.trace.selections, dtype=np.int64)
    except ValueError:
        ids = None
    return RunRecord(
        policy=cfg.policy,
        n=cfg.n,
        k=cfg.k,
        horizon=cfg.horizon,
        floors=np.asarray(cfg.fairness, dtype=float),
        oracle=dict(cfg.oracle),
        sample_counts=cfg.sample_counts,
        ids=ids,
        utilities=np.asarray(result.trace.utilities, dtype=float),
        mean_utility=result.trace.mean_utility(),
        fractions=np.asarray(result.fairness.fractions, dtype=float),
        y1=None if greedy is None else np.array(greedy.y1.coords),
        greedy_value=None if greedy is None else greedy.value,
        greedy_mode=None if greedy is None else greedy.estimator_mode,
        u_opt=None if result.lp is None else result.lp.u_opt,
    )


class Reference:
    """Own evaluation of one instance: f over all 2^n sets, U_opt per floors."""

    def __init__(self, n: int, k: int, oracle: dict, sample_counts):
        self.n, self.k = n, k
        self.oracle = oracle
        self.sample_counts = None if sample_counts is None else np.asarray(sample_counts)
        codes = np.arange(1 << n, dtype=np.int64)
        self.all_masks = (codes[:, None] >> np.arange(n)) & 1 > 0
        self.table = self.values(self.all_masks)
        self.k_sets = self.all_masks[self.all_masks.sum(axis=1) == k]
        self.k_values = self.table[self.all_masks.sum(axis=1) == k]
        self._uopt: dict[bytes, float] = {}

    def values(self, masks: np.ndarray) -> np.ndarray:
        kind = self.oracle["kind"]
        if kind == "accuracy":
            totals = masks.astype(float) @ self.sample_counts
            out = np.zeros(masks.shape[0])
            some = totals > 0
            out[some] = (1.0 - self.oracle["min_error"]) - self.oracle["scale"] * totals[
                some
            ] ** self.oracle["exponent"]
            return np.maximum(out, 0.0)
        if kind == "coverage":
            weights = np.asarray(self.oracle["item_weights"], dtype=float)
            incidence = np.zeros((self.n, weights.size), dtype=np.int64)
            for u, items in enumerate(self.oracle["covers"]):
                incidence[u, list(items)] = 1
            return ((masks.astype(np.int64) @ incidence) > 0) @ weights
        raise ValueError(f"no reference formula for oracle kind {kind!r}")

    def extension(self, y: np.ndarray) -> float:
        probs = np.where(self.all_masks, y, 1.0 - y).prod(axis=1)
        return float(probs @ self.table)

    def u_opt(self, floors: np.ndarray) -> float:
        key = floors.tobytes()
        if key not in self._uopt:
            from scipy.optimize import linprog

            res = linprog(
                c=-self.k_values,
                A_ub=-self.k_sets.T.astype(float),
                b_ub=-floors,
                A_eq=np.ones((1, self.k_values.size)),
                b_eq=[1.0],
                bounds=(0.0, None),
                method="highs",
            )
            if not res.success:
                raise RuntimeError(f"reference LP failed: {res.message}")
            self._uopt[key] = float(-res.fun)
        return self._uopt[key]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_run(rec: RunRecord, ref: Reference) -> list[str]:
    """Every check that applies to one policy run."""
    tag = rec.policy
    fails: list[str] = []
    ids = rec.ids
    if ids is None:
        return [f"{tag}: some round selects a number of workers other than k={rec.k}"]
    if ids.shape != (rec.horizon, rec.k):
        return [f"{tag}: selections have shape {ids.shape}, want ({rec.horizon}, {rec.k})"]
    if ids.min() < 0 or ids.max() >= rec.n:
        fails.append(f"{tag}: worker id outside 0..{rec.n - 1}")
        return fails
    if (np.diff(np.sort(ids, axis=1), axis=1) == 0).any():
        fails.append(f"{tag}: a round selects the same worker twice")
    masks = np.zeros((rec.horizon, rec.n), dtype=bool)
    np.put_along_axis(masks, ids, True, axis=1)

    own = ref.values(masks)
    bad = ~np.isclose(rec.utilities, own, rtol=1e-12, atol=1e-12)
    if bad.any():
        t = int(np.argmax(bad))
        fails.append(
            f"{tag}: round {t + 1} utility {float(rec.utilities[t])!r} != own {float(own[t])!r}"
        )
    if not _close(rec.mean_utility, float(own.mean()), 1e-12):
        fails.append(f"{tag}: mean utility {rec.mean_utility!r} != own {own.mean()!r}")

    fractions = masks.sum(axis=0) / float(rec.horizon)
    if not np.allclose(rec.fractions, fractions, rtol=0.0, atol=1e-15):
        fails.append(f"{tag}: reported fractions differ from the selections")
    if rec.policy != "dg":
        r = rec.floors
        floor = r - FRACTION_Z * np.sqrt(r * (1.0 - r) / rec.horizon)
        short = np.nonzero(fractions < floor)[0]
        if short.size:
            u = int(short[0])
            fails.append(
                f"{tag}: worker {u} selected {fractions[u]:.6f} < {floor[u]:.6f} "
                f"(floor {r[u]:.6f} less {FRACTION_Z:g} sigma)"
            )

    if rec.policy == "dg":
        chosen = float(own[0])
        best = float(ref.k_values.max())
        if not (ids == ids[0]).all():
            fails.append(f"{tag}: the greedy baseline changed its set between rounds")
        if chosen < ONE_MINUS_1_OVER_E * best - 1e-12:
            fails.append(f"{tag}: greedy set value {chosen!r} < (1-1/e) * best {best!r}")

    if rec.y1 is not None:
        fails += _check_greedy(rec, ref)
    return fails


def _check_greedy(rec: RunRecord, ref: Reference) -> list[str]:
    tag = rec.policy
    fails = []
    u_opt = ref.u_opt(rec.floors)
    if rec.u_opt is not None and not _close(rec.u_opt, u_opt, UOPT_RTOL):
        fails.append(f"{tag}: U_opt {rec.u_opt!r} != HiGHS {u_opt!r}")
    if abs(rec.y1.sum() - rec.k) > 1e-9 or (rec.y1 < rec.floors - 1e-9).any():
        fails.append(f"{tag}: y1 is outside the fairness polytope")
    f_y1 = ref.extension(rec.y1)
    if rec.greedy_mode == "exact" and not _close(rec.greedy_value, f_y1, EXACT_RTOL):
        fails.append(f"{tag}: F(y1) {rec.greedy_value!r} != own enumeration {f_y1!r}")
    if rec.policy == "faircg1":
        bound = ONE_MINUS_1_OVER_E * u_opt
    else:
        r = rec.floors
        c_r = 1.0 - max(float(r.max()), float(r.sum()) / rec.k)
        decay = math.exp(-c_r)
        bound = (1.0 - decay) * u_opt + decay * ref.extension(r)
    if f_y1 < bound - EXACT_RTOL * max(1.0, abs(bound)):
        fails.append(f"{tag}: F(y1) {f_y1!r} below its guarantee {bound!r}")
    return fails


def check_written(rec: RunRecord) -> list[str]:
    """rounds.csv and fractions.csv say what the run returned."""
    tag = f"{rec.policy} files"
    if rec.ids is None:
        return []  # check_run already reports the malformed rounds
    rounds = (rec.out_dir / "rounds.csv").read_text().splitlines()
    if len(rounds) != rec.horizon + 1:
        return [f"{tag}: rounds.csv has {len(rounds) - 1} rounds, want {rec.horizon}"]
    cells = [line.split(",") for line in rounds[1:]]
    expect_ids = ["|".join(map(str, s)) for s in rec.ids.tolist()]
    fails = []
    if [c[1] for c in cells] != expect_ids:
        fails.append(f"{tag}: rounds.csv selections differ from the run")
    if [float(c[2]) for c in cells] != rec.utilities.tolist():
        fails.append(f"{tag}: rounds.csv utilities differ from the run")
    fractions = (rec.out_dir / "fractions.csv").read_text().splitlines()[1:]
    if [float(line.split(",")[2]) for line in fractions] != rec.fractions.tolist():
        fails.append(f"{tag}: fractions.csv differs from the run")
    return fails


def check_sweep(
    rows, out_dir: Path, records: list[RunRecord], ref: Reference, betas, base
) -> list[str]:
    """One ok row per beta and fair policy, with the right U_opt, matching
    its run and sweep.csv."""
    fails = []
    want = [(b, p) for b in betas for p in ("faircg1", "faircg2", "fairdg")]
    got = [(row.beta, row.policy) for row in rows]
    if got != want:
        return [f"sweep: rows {got} != {want}"]
    lines = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    written = [(float(c[0]), c[1], float(c[3]), float(c[4])) for c in cells]
    if written != [(r.beta, r.policy, r.u_opt, r.mean_utility) for r in rows]:
        fails.append("sweep: sweep.csv differs from the rows returned")
    by_key = {(r.floors.tobytes(), r.policy): r for r in records}
    for row in rows:
        floors = np.array([row.beta * b for b in base])
        if row.status != "ok":
            fails.append(f"sweep beta={row.beta}: status {row.status}")
            continue
        u_opt = ref.u_opt(floors)
        if not _close(row.u_opt, u_opt, UOPT_RTOL):
            fails.append(f"sweep beta={row.beta}: U_opt {row.u_opt!r} != HiGHS {u_opt!r}")
        rec = by_key.get((floors.tobytes(), row.policy))
        if rec is None or rec.mean_utility != row.mean_utility:
            fails.append(f"sweep beta={row.beta} {row.policy}: row does not match its run")
    return fails
