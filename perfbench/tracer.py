"""Spans around the program's public functions, recorded from outside it.

Each wrapper is installed at the name its callers look up (a module global
such as ``fairsel.runner.dep_round``, or a class attribute such as
``ExtensionEvaluator.weights``), so the program runs unchanged and every
call through that name becomes one span: name, parent span, start, end and
an optional amount (rows for oracle batches, bytes for writes, columns for
the LP). Spans stay in flat arrays in memory and are written once, at the
end of the run.
"""
from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


def _rows(args, out) -> float:
    return float(len(out))


def _bytes(args, out) -> float:
    return float(sum(Path(p).stat().st_size for p in out))


def _targets(lp_columns):
    """(owner, attribute, span name, amount) for every traced call site.

    The benchmark's own calibration points and record copies get spans too,
    so that the ones taken inside run_sweep (around each execute_run) count
    as its children and not as its self time.
    """
    import fairsel.config as config
    import fairsel.greedy as greedy
    import fairsel.metrics as metrics
    import fairsel.multilinear as multilinear
    import fairsel.oracles as oracles
    import fairsel.runner as runner

    import checks
    from calibrate import Calibration

    return [
        (Calibration, "point", "bench.calibration", None),
        (checks, "take_record", "bench.record", None),
        (config, "parse_config", "config.parse_config", None),
        (runner, "execute_run", "runner.execute_run", None),
        (runner, "run_sweep", "runner.run_sweep", None),
        (runner, "write_run_outputs", "runner.write_run_outputs", _bytes),
        (runner, "derive_rng", "core.derive_rng", None),
        (multilinear, "derive_rng", "core.derive_rng", None),
        (runner, "dep_round", "rounding.dep_round", None),
        (runner, "fairdg_round", "discrete.fairdg_round", None),
        (runner, "dg_round", "discrete.dg_round", None),
        (runner, "round_robin_policy", "discrete.round_robin_policy", None),
        (runner, "solve_uopt", "lp.solve_uopt", lp_columns),
        (runner, "faircg1_fractional", "greedy.fractional", None),
        (runner, "faircg2_fractional", "greedy.fractional", None),
        (greedy, "maximize_linear", "polytope.maximize_linear", None),
        (multilinear.ExtensionEvaluator, "weights", "multilinear.weights", None),
        (multilinear.ExtensionEvaluator, "value_with_stderr", "multilinear.value", None),
        (oracles.UtilityOracle, "evaluate_many", "oracles.evaluate_many", _rows),
        (metrics.SelectionTrace, "selection_matrix", "metrics.selection_matrix", None),
        (runner, "fairness_report", "metrics.fairness_report", None),
        (runner, "bound_certificates", "metrics.bound_certificates", None),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # floors of every LP solved, to count solves per distinct floor vector
        self.lp_floors: list[bytes] = []

    def install(self) -> None:
        for owner, attr, span_name, amount in _targets(self._lp_columns):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original, amount))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _lp_columns(self, args, out) -> float:
        self.lp_floors.append(np.asarray(args[0].fairness).tobytes())
        return float(len(out.subsets))

    def _wrap(self, span_name: str, fn, amount):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        stack = self._stack
        name, parent, start, end, amounts = (
            self.name, self.parent, self.start, self.end, self.amount,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            amounts.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, out)
            return out

        return traced

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            amount=np.frombuffer(self.amount),
        )

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-round figures for every layer, as {metric: (value, unit)}.

        Span times are measured seconds; ``overhead_s`` comes in calibrated.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        amount = np.frombuffer(self.amount)
        self_time = dur.copy()
        child = parent >= 0
        np.subtract.at(self_time, parent[child], dur[child])

        def pick(span_name: str) -> np.ndarray:
            nid = self._ids.get(span_name)
            return name == nid if nid is not None else np.zeros(name.size, dtype=bool)

        def calls(span_name):
            return float(pick(span_name).sum()) / rounds

        def total(span_name):
            return float(dur[pick(span_name)].sum()) / rounds

        def self_s(span_name):
            return float(self_time[pick(span_name)].sum()) / rounds

        def amount_of(span_name):
            return float(amount[pick(span_name)].sum()) / rounds

        fairdg = pick("discrete.fairdg_round")
        batches = pick("oracles.evaluate_many")
        rows_in_fairdg = float(amount[batches & child & fairdg[np.maximum(parent, 0)]].sum())
        fairdg_calls = float(fairdg.sum())
        lp_calls = len(self.lp_floors)
        metrics = {
            "rounding.dep_round.calls": (calls("rounding.dep_round"), "count"),
            "rounding.dep_round.s": (total("rounding.dep_round"), "s"),
            "core.derive_rng.calls": (calls("core.derive_rng"), "count"),
            "core.derive_rng.s": (total("core.derive_rng"), "s"),
            "discrete.fairdg_round.calls": (calls("discrete.fairdg_round"), "count"),
            "discrete.fairdg_round.s": (total("discrete.fairdg_round"), "s"),
            "discrete.fairdg_round.rows_per_round": (
                _ratio(rows_in_fairdg, fairdg_calls),
                "count",
            ),
            "discrete.round_robin_policy.s": (total("discrete.round_robin_policy"), "s"),
            "discrete.dg_round.s": (total("discrete.dg_round"), "s"),
            "metrics.selection_matrix.calls": (calls("metrics.selection_matrix"), "count"),
            "metrics.selection_matrix.s": (total("metrics.selection_matrix"), "s"),
            "metrics.fairness_report.s": (total("metrics.fairness_report"), "s"),
            "metrics.bound_certificates.s": (total("metrics.bound_certificates"), "s"),
            "runner.write_run_outputs.s": (total("runner.write_run_outputs"), "s"),
            "runner.bytes_written": (amount_of("runner.write_run_outputs"), "bytes"),
            "multilinear.weights.calls": (calls("multilinear.weights"), "count"),
            "multilinear.weights.s": (total("multilinear.weights"), "s"),
            "multilinear.value.calls": (calls("multilinear.value"), "count"),
            "multilinear.value.s": (total("multilinear.value"), "s"),
            "oracles.evaluate_many.calls": (calls("oracles.evaluate_many"), "count"),
            "oracles.evaluate_many.rows": (amount_of("oracles.evaluate_many"), "count"),
            "oracles.evaluate_many.s": (total("oracles.evaluate_many"), "s"),
            "oracles.rows_per_s": (
                _ratio(amount_of("oracles.evaluate_many"), total("oracles.evaluate_many")),
                "1/s",
            ),
            "lp.solve_uopt.calls": (calls("lp.solve_uopt"), "count"),
            "lp.solve_uopt.s": (total("lp.solve_uopt"), "s"),
            "lp.columns": (
                _ratio(amount_of("lp.solve_uopt"), calls("lp.solve_uopt")),
                "count",
            ),
            "lp.solves_per_beta": (
                _ratio(lp_calls, len(set(self.lp_floors)) * rounds),
                "count",
            ),
            "polytope.maximize_linear.calls": (calls("polytope.maximize_linear"), "count"),
            "polytope.maximize_linear.s": (total("polytope.maximize_linear"), "s"),
            "greedy.fractional.self_s": (self_s("greedy.fractional"), "s"),
            "runner.self_s": (self_s("runner.execute_run") + self_s("runner.run_sweep"), "s"),
            "config.parse_config.s": (total("config.parse_config"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
