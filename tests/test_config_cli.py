import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairsel import FeasibilityError, SizeLimitError, runner
from fairsel.cli import main
from fairsel.config import RunConfig, load_config, parse_config
from fairsel.core import format_float
from fairsel.metrics import TRACE_BLOCK
from fairsel.runner import execute_run, run_sweep, write_run_outputs
from fairsel.presets import DEMO_MASTER_SEED, demo_config


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env():
    """The environment for a child interpreter, with this checkout's src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_demo_config_fast_profile_defaults():
    cfg = parse_config(demo_config())
    assert cfg.profile == "fast"
    assert cfg.policy == "faircg1"
    assert cfg.horizon == 10_000
    assert cfg.step_count == 25
    assert cfg.estimator["samples"] == 10_000
    assert cfg.master_seed == DEMO_MASTER_SEED
    assert cfg.fairness == pytest.approx(0.42 * np.asarray(cfg.fairness_base))
    assert cfg.build_pool().is_feasible()


def test_full_profile_and_explicit_values_win():
    raw = demo_config()
    cfg = parse_config(raw, profile="full")
    assert cfg.horizon == 100_000
    assert cfg.step_count is None
    assert cfg.resolved_step_count() == 100
    raw["horizon"] = 123
    raw["step_count"] = 7
    cfg = parse_config(raw, profile="full")  # explicit keys beat the profile
    assert cfg.horizon == 123
    assert cfg.step_count == 7


def test_null_values_take_the_profile_defaults():
    raw = demo_config()
    raw.update(step_count=None, horizon=None)
    raw["estimator"] = {"mode": "monte_carlo", "samples": None}
    cfg = parse_config(raw)
    assert (cfg.step_count, cfg.horizon, cfg.estimator["samples"]) == (25, 10_000, 10_000)
    cfg = parse_config(raw, profile="full")
    assert (cfg.step_count, cfg.horizon, cfg.estimator["samples"]) == (None, 100_000, None)
    assert cfg.resolved_step_count() == 100
    assert cfg.build_estimator().sample_count(cfg.n) == 100_000


def test_seed_override_beats_the_file():
    cfg = parse_config(demo_config(master_seed=5), seed=99)
    assert cfg.master_seed == 99


def test_explicit_fairness_form():
    raw = demo_config()
    raw["fairness"] = {"explicit": [0.1] * 10}
    cfg = parse_config(raw)
    assert cfg.fairness == tuple([0.1] * 10)
    assert cfg.fairness_base is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("n"),
        lambda raw: raw.update(k=99),
        lambda raw: raw.update(policy="sneaky"),
        lambda raw: raw.update(fairness={"beta": 0.42}),
        lambda raw: raw.update(fairness={"explicit": [2.0] * 10}),
        lambda raw: raw.update(sample_counts=[1.0, 2.0]),
        lambda raw: raw.update(master_seed=-1),
        lambda raw: raw.update(horizon=0),
        lambda raw: raw.update(step_count=0),
        lambda raw: raw.update(profile="turbo"),
        lambda raw: raw.update(oracle={"noise": True}),
        lambda raw: raw.update(k=6.7),
        lambda raw: raw.update(k=True),
        lambda raw: raw.update(horizon=99.9),
        lambda raw: raw.update(master_seed=1.5),
        lambda raw: raw.update(step_count=True),
        lambda raw: raw.update(subset_cap=10.5),
        lambda raw: raw.update(estimator={"samples": 2.5}),
        lambda raw: raw.update(estimator={"samples": True}),
        lambda raw: raw.update(estimator={"mode": "bogus"}),
        lambda raw: raw.update(strict_debt="false"),
        lambda raw: raw.update(emit_step_trace=1),
        lambda raw: raw.update(horizn=5),
        lambda raw: raw.update(estimator={"sample": 100}),
        lambda raw: raw.update(estimator={"common_random_numbers": False}),
        lambda raw: raw.update(estimator={"exact_threshold": 10}),
        lambda raw: raw.update(estimator={"chunk_size": 512}),
        lambda raw: raw.update(sweep_betas=[True, 0.3]),
        lambda raw: raw.update(sweep_betas=["0.3"]),
        lambda raw: raw.update(sweep_betas="0.3"),
        lambda raw: raw.update(sample_counts=[200] * 9 + [True]),
        lambda raw: raw.update(fairness={"explicit": [0.1] * 9 + [True]}),
        lambda raw: raw.update(fairness={"explicit": [0.1] * 9 + [float("nan")]}),
        lambda raw: raw.update(fairness={"explicit": [0.1] * 10, "beta": 2}),
        lambda raw: raw["fairness"].update(beta="0.42"),
        lambda raw: raw["fairness"].update(base=[1] * 9 + ["1"]),
        lambda raw: raw["fairness"].update(scale=2),
        lambda raw: raw.update(oracle={"kind": "accuracy", "scal": 0.5}),
        lambda raw: raw.update(oracle={"kind": "coverage", "item_weights": [1.0]}),
        lambda raw: raw.update(oracle={"kind": "modular"}),
        lambda raw: raw.update(oracle={"kind": "bogus"}),
        lambda raw: raw.update(profile=None),
        lambda raw: raw.update(profile=""),
        lambda raw: raw.update(profile=False),
        lambda raw: raw.update(profile=0),
        lambda raw: raw.update(profile=["fast"]),
        lambda raw: raw.update(estimator=None),
        # a caller's profile or seed wins over the file's, but a bad file
        # value is still an error; these mutations return the caller's flags
        lambda raw: raw.update(profile="turbo") or {"profile": "full"},
        lambda raw: raw.update(master_seed=-5) or {"seed": 3},
        lambda raw: raw.update(master_seed="abc") or {"seed": 3},
    ],
)
def test_validation_errors(mutate):
    raw = demo_config()
    flags = mutate(raw)
    flags = flags if isinstance(flags, dict) else {}
    with pytest.raises(ValueError):
        parse_config(raw, **flags)


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"horizn": 5}, "'horizn'"),
        ({"estimator": {"sample": 100}}, "estimator.sample;"),
        ({"estimator": {"mode": "exact", "chunk_size": 512}}, "estimator.chunk_size"),
        ({"k": 6.7}, "k must be an integer"),
        ({"strict_debt": "false"}, "strict_debt must be true or false"),
        ({"sweep_betas": [True, 0.3]}, "sweep_betas[0] must be a number"),
        ({"sweep_betas": [0.3, "0.3"]}, "sweep_betas[1] must be a number"),
        ({"sample_counts": [200] * 9 + [True]}, "sample_counts[9] must be a number"),
        ({"fairness": {"explicit": [0.1] * 9 + [True]}}, "fairness.explicit[9]"),
        ({"fairness": {"explicit": [0.1] * 10, "beta": 2}}, "fairness.beta"),
        ({"fairness": {"beta": True, "base": [1] * 10}}, "fairness.beta must be a number"),
        ({"fairness": {"beta": 0.4, "base": [1] * 9 + ["1"]}}, "fairness.base[9]"),
        ({"oracle": {"kind": "accuracy", "scal": 0.5}}, "oracle.scal"),
        ({"oracle": {"kind": "coverage", "item_weights": [1.0]}}, "oracle.covers"),
        ({"oracle": {"kind": "modular"}}, "oracle.weights"),
        ({"profile": None}, "profile must be one of"),
        ({"estimator": None}, "estimator must be an object"),
    ],
)
def test_validation_errors_name_the_key(changes, key):
    raw = demo_config()
    raw.update(changes)
    with pytest.raises(ValueError, match=re.escape(key)):
        parse_config(raw)


def test_integral_numbers_and_json_booleans_are_accepted():
    raw = demo_config(horizon=300)
    raw.update(k=6.0, strict_debt=True, estimator={"mode": "exact", "samples": 1e3})
    cfg = parse_config(raw)
    assert (cfg.k, cfg.horizon, cfg.strict_debt) == (6, 300, True)
    assert cfg.estimator == {"mode": "exact", "samples": 1000}
    assert cfg.build_estimator().samples == 1000


def test_oracle_kinds_buildable():
    raw = demo_config()
    raw["oracle"] = {"kind": "modular", "weights": [0.1] * 10}
    assert parse_config(raw).build_oracle().evaluate({3}) == pytest.approx(0.1)
    raw["oracle"] = {
        "kind": "coverage",
        "item_weights": [1.0, 2.0],
        "covers": [[0], [1], [], [], [], [], [], [], [], [0, 1]],
    }
    assert parse_config(raw).build_oracle().evaluate({9}) == 3.0
    raw["oracle"] = {"kind": "accuracy"}
    raw.pop("sample_counts")
    with pytest.raises(ValueError):
        parse_config(raw).build_oracle()


def test_config_hash_is_canonical_and_sensitive(tmp_path):
    raw = demo_config()
    scrambled = json.loads(json.dumps(raw))
    scrambled = dict(reversed(list(scrambled.items())))
    a = parse_config(raw).config_hash()
    assert parse_config(scrambled).config_hash() == a
    assert parse_config(demo_config(master_seed=8)).config_hash() != a
    cfg = parse_config(raw)
    assert dataclasses.replace(cfg, fairness=tuple([0.1] * 10)).config_hash() != a
    path = _write(tmp_path, raw)
    assert load_config(path).config_hash() == a


def test_cli_run_writes_everything(tmp_path, capsys):
    raw = demo_config(policy="faircg2", horizon=300)
    raw["emit_step_trace"] = True
    path = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    for name in ("rounds.csv", "fractions.csv", "convergence.csv", "bounds.csv",
                 "steps.csv", "manifest.txt"):
        assert (out / name).exists(), name
    manifest = dict(
        line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["config_hash"] == load_config(path).config_hash()
    assert manifest["policy"] == "faircg2"
    assert manifest["schema_version"] == "2"
    assert manifest["estimator_mode"] == "exact"
    assert int(manifest["oracle_queries"]) > 0
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,selected,utility,running_average,max_debt"
    assert len(rounds) == 301
    captured = capsys.readouterr().out
    assert "mean_utility=" in captured and "u_opt=" in captured


def test_long_run_outputs_match_the_full_count_matrix(tmp_path):
    # past two blocks of rounds, so the blocked debt and convergence pass joins
    horizon = 2 * TRACE_BLOCK + 300
    result = execute_run(parse_config(demo_config(policy="roundrobin", horizon=horizon)))
    write_run_outputs(result, tmp_path)
    counts = np.cumsum(result.trace.selected, axis=0)
    t = np.arange(1, horizon + 1)[:, None]
    debts = (result.pool.fairness[None, :] * t - counts).max(axis=1)
    rounds = (tmp_path / "rounds.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rounds] == [format_float(d) for d in debts]
    stride = horizon // 1000
    sampled = [i for i in range(horizon) if (i + 1) % stride == 0 or i + 1 == horizon]
    expected = [
        f"{i + 1}," + ",".join(format_float(v) for v in counts[i] / float(i + 1))
        for i in sampled
    ]
    assert (tmp_path / "convergence.csv").read_text().splitlines()[1:] == expected


def test_cli_seed_flag_changes_the_run(tmp_path):
    path = _write(tmp_path, demo_config(policy="faircg1", horizon=200))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["run", "--config", path, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()


def test_cli_opt(tmp_path, capsys):
    path = _write(tmp_path, demo_config())
    out = tmp_path / "opt"
    assert main(["opt", "--config", path, "--out", str(out)]) == 0
    lines = (out / "support.csv").read_text().splitlines()
    assert lines[0] == "subset,utility,probability"
    probs = [float(line.split(",")[2]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert "u_opt=" in capsys.readouterr().out


def test_cli_opt_infeasible_exit_code(tmp_path):
    raw = demo_config(beta=0.42)
    raw["fairness"] = {"explicit": [0.9] * 10}  # sums to 9 > k=6
    path = _write(tmp_path, raw)
    assert main(["opt", "--config", path, "--out", str(tmp_path / "x")]) == 1


def test_cli_sweep(tmp_path, capsys):
    raw = demo_config(policy="faircg1", horizon=400)
    raw["sweep_betas"] = [0.0, 0.42]
    path = _write(tmp_path, raw)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,policy,status,u_opt,mean_utility,empirical_ratio,bound_ratio"
    assert len(lines) == 1 + 2 * 3  # two betas, three fair policies
    assert "ratio=" in capsys.readouterr().out


def test_cli_sweep_above_the_lp_cap_leaves_u_opt_blank(tmp_path, capsys):
    # C(10, 6) = 210 subsets exceed the cap: no run solves the LP, and the
    # sweep reports utilities without U_opt instead of raising
    raw = demo_config(policy="faircg1", horizon=300)
    raw["subset_cap"] = 100
    path = _write(tmp_path, raw)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 11 * 3  # every demo beta, three fair policies
    for line in lines[1:]:
        beta, policy, status, u_opt, mean, ratio, bound = line.split(",")
        assert status == "ok"
        assert (u_opt, ratio, bound) == ("", "", "")
        assert float(mean) > 0.0
    capsys.readouterr()


def test_cli_sweep_without_betas_writes_the_header(tmp_path, capsys):
    raw = demo_config(policy="faircg1", horizon=100)
    raw["sweep_betas"] = []
    path = _write(tmp_path, raw)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text() == (
        "beta,policy,status,u_opt,mean_utility,empirical_ratio,bound_ratio\n"
    )
    capsys.readouterr()


def test_sweep_requires_a_base_profile(tmp_path):
    raw = demo_config(horizon=100)
    raw["fairness"] = {"explicit": [0.1] * 10}
    path = _write(tmp_path, raw)
    with pytest.raises(ValueError):
        main(["sweep", "--config", path, "--out", str(tmp_path / "x")])


def _exact_above_the_cap():
    # C(16, 8) = 12870 LP columns fit subset_cap; the 2^16 exact table does not
    return {
        "n": 16, "k": 8, "fairness": {"explicit": [0.0] * 16},
        "oracle": {"kind": "modular", "weights": [1.0] * 16},
        "policy": "faircg1", "horizon": 10, "estimator": {"mode": "exact"},
    }


def _floors_over_budget():
    raw = demo_config(policy="faircg2", horizon=10)
    raw["fairness"] = {"explicit": [0.7] * 10}  # sum 7 > k = 6
    return raw


@pytest.mark.parametrize(
    "make_raw, error",
    [(_exact_above_the_cap, SizeLimitError), (_floors_over_budget, FeasibilityError)],
    ids=["exact-above-the-cap", "floors-over-budget"],
)
def test_faircg_fails_before_the_lp_spends_its_queries(monkeypatch, make_raw, error):
    calls = []
    monkeypatch.setattr(runner, "solve_uopt", lambda *args, **kw: calls.append(args))
    with pytest.raises(error):
        execute_run(parse_config(make_raw()))
    assert calls == []


def test_sweep_checks_every_beta_before_the_first_run(monkeypatch):
    # 0.9 * 1.5 > 1: the second beta's floors leave [0, 1]
    raw = demo_config(horizon=10)
    raw["sweep_betas"] = [0.3, 0.9]
    calls = []
    monkeypatch.setattr(runner, "execute_run", lambda cfg: calls.append(cfg))
    with pytest.raises(ValueError, match=re.escape("fairness floors must lie in [0, 1]")):
        run_sweep(parse_config(raw))
    assert calls == []


def test_cli_check_passes_on_the_demo(tmp_path, capsys):
    path = _write(tmp_path, demo_config())
    assert main(["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "feasible=yes" in out
    assert "monotone=yes" in out and "submodular=yes" in out


def test_cli_check_fails_on_infeasible_floors(tmp_path, capsys):
    raw = demo_config()
    raw["fairness"] = {"explicit": [0.9] * 10}
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path]) == 1
    assert "feasible=no" in capsys.readouterr().out


def test_cli_check_skips_structure_beyond_the_cap(tmp_path, capsys):
    raw = {
        "n": 13,
        "k": 3,
        "fairness": {"explicit": [0.1] * 13},
        "oracle": {"kind": "modular", "weights": [1.0] * 13},
        "policy": "dg",
    }
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path]) == 0
    assert "structure check skipped" in capsys.readouterr().out


def test_module_entry_point_smoke(tmp_path):
    path = _write(tmp_path, demo_config(policy="roundrobin", horizon=50))
    out = tmp_path / "mod_out"
    proc = subprocess.run(
        [sys.executable, "-m", "fairsel", "run", "--config", path, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "rounds.csv").exists()


def test_run_config_is_frozen():
    cfg = parse_config(demo_config())
    with pytest.raises(AttributeError):
        cfg.horizon = 5
    assert isinstance(cfg, RunConfig)


def test_run_and_opt_never_import_scipy(tmp_path):
    # a fresh interpreter, because other tests import scipy into this one;
    # scipy.optimize would add about 48 MB of peak memory to every run. With
    # scipy blocked, any import of it in the library fails the command.
    raw = demo_config(policy="faircg1", horizon=50)
    raw["step_count"] = 3
    path = _write(tmp_path, raw)
    commands = [
        ["run", "--config", path, "--out", str(tmp_path / "run")],
        ["opt", "--config", path, "--out", str(tmp_path / "opt")],
        ["sweep", "--config", path, "--out", str(tmp_path / "sweep")],
        ["check", "--config", path],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fairsel.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {commands!r})\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    print('scipy blocked')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "u_opt=" in proc.stdout and (tmp_path / "opt" / "support.csv").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists() and "feasible=yes" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "scipy blocked"


def test_readme_library_use_block_prints_what_it_states():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = re.search(r"prints `([^`]*)`", section).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        timeout=300,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stated + "\n"
