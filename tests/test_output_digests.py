"""Pinned output bytes: the CSVs of a fixed set of CLI jobs, by sha256.

Criterion 10 compares two reruns of the same code, so it cannot notice a
change that alters the outputs consistently. These digests were taken once
and must not move unless an output change is intended and declared; the
manifest's oracle query counts are pinned alongside, since the manifest
itself carries a wall time and is not byte-stable. The demo runs use the
exact extension, so two extra runs pin the Monte Carlo path as well.
"""
import hashlib
import json

from fairsel.cli import main
from fairsel.presets import demo_config

PINNED_CSV_SHA256 = {
    "run-faircg1/bounds.csv": "f8a000d3f1b03838b7548036b57bb1aadf9b68ff5ee57339c6bc692f6d5dc35a",
    "run-faircg1/convergence.csv": "1b5ba55d0c4f02171d78e86879940ab0ac28c7719748db20f8c6dd50c2a130c3",
    "run-faircg1/fractions.csv": "523dab93a26ef3e07cf1a43fd7b3cefd956919f5f50aed9ef01da38c463fddb2",
    "run-faircg1/rounds.csv": "352992e72dca01e7caf6c6e3c7ec2b01f256aebd03e23b38b6585b0532e19dc5",
    "run-faircg1/steps.csv": "e6dd6a8fa7e4afeb657c7a2e9c12434541bd716491554629b84be97213f38c4d",
    "run-faircg2/bounds.csv": "5864aa25864b26c04c2889801173ba921fbdf531e10c4f1a8f1dceb1841d3434",
    "run-faircg2/convergence.csv": "bfb33c9199c52ec9f578b53c3a82faff76f740743ecd16ab916aba9e95c9f364",
    "run-faircg2/fractions.csv": "572055988a1817f22ba433fc03b682dfd48b64f6e7a8a1ac3431d0377f2f1cca",
    "run-faircg2/rounds.csv": "79e3fe0e3524d1b8736002057f0dea3f12c6892775ac70ad2b04d0cbd0b44351",
    "run-faircg2/steps.csv": "21833d8a511c71dc73486be418d8d7d88370cacaeb847685dd7ff1ada33d25f2",
    "run-faircg1-mc/bounds.csv": "973f01b7e5819100bfd8d78ad4afb0e1575fda58d9f9d4d877f94bd689ed8308",
    "run-faircg1-mc/convergence.csv": "4ad300d8af3285b69ab8474c3fe89d35a77409cd8b75e85172363ccaaac043db",
    "run-faircg1-mc/fractions.csv": "a83604393d3989ea66d2780cd3db9d6627f29576ad95eb09681f2fbf7209f30d",
    "run-faircg1-mc/rounds.csv": "d15c4746595ace1706990ef2df6edcbc2b06311bdb9d56613b6f89c4d3bdfd2c",
    "run-faircg1-mc/steps.csv": "4efbfb107cd85aeda4dd35861ab2a4105915a888db859ef06639b250699584f8",
    "run-faircg2-mc/bounds.csv": "a2d2f49a0717dcddccf71489c74ea06cd3537f65900a5387d4dac4b60a6bec62",
    "run-faircg2-mc/convergence.csv": "876b7dcb6b94bb3d96d5bec0f47af4c2be81d75e5f2498924e3441d2cef4dbe3",
    "run-faircg2-mc/fractions.csv": "dc0406e24b4d48abd463c50a811c58a3d0a3b18f7399049a7dfc87c65ff2d5b4",
    "run-faircg2-mc/rounds.csv": "eb3c19544252051e19953ed808d15e4f91ce73029ab88d824aef774ad430583f",
    "run-faircg2-mc/steps.csv": "b3c67c285ba2cc06e31012f736f1b21874b71d758e4f1c178644e04067f5a179",
    "run-fairdg/convergence.csv": "7513a012cd1d12c66a24d231738a5d8a73603e10e1daeabbf33494f196571e9c",
    "run-fairdg/fractions.csv": "1a7e2db5fe94bcd85a33c3270a15fe638ef4a5636c8b27bd0e4679503204064f",
    "run-fairdg/rounds.csv": "d387d2c42fe47d26a427db411bf09728ac93ec1f83ff4ed5a77aa1b6584292a3",
    "run-dg/convergence.csv": "7441caab7b821aecb19786ac5baa5f3d8da1bc330b891cf0ba8180f0e2ff5135",
    "run-dg/fractions.csv": "28e5d370cdf0c75a732c387e00cc37d44c92bff96217fc61799d7b016935d005",
    "run-dg/rounds.csv": "8ce5fb4f786baea469c90417201de6c8d7eea688f80e53d0579281545c44bb3e",
    "run-roundrobin/convergence.csv": "9dd3ee84919f242c338a0963f1c1c26a5a64f25e304d4d034ee5487bbdfe5172",
    "run-roundrobin/fractions.csv": "867700c040534b7353bac723066fb32b126da2e1eda30a10521d626f8616aed2",
    "run-roundrobin/rounds.csv": "ab4e89d8a724a5509c58b110917ecd66719ab6596f5cce366701e6f6debc9205",
    "sweep/sweep.csv": "952fd27d308e54f0655f86d5de504c3ecf2101c2b458d547c6a8e70f66230c58",
    "opt/support.csv": "17a5eb183fe741d2bd4bee9ad0cd859d119733efd86904f62a36d0f44e43c564",
}

PINNED_ORACLE_QUERIES = {
    "run-faircg1": 4234,
    "run-faircg2": 4234,
    "run-faircg1-mc": 141406,
    "run-faircg2-mc": 103490,
    "run-fairdg": 3158,
    "run-dg": 3045,
    "run-roundrobin": 3000,
}


def _jobs():
    for policy in ("faircg1", "faircg2", "fairdg", "dg", "roundrobin"):
        raw = demo_config(policy=policy, horizon=3000)
        raw["emit_step_trace"] = True
        yield f"run-{policy}", "run", raw
    for policy in ("faircg1", "faircg2"):
        raw = demo_config(policy=policy, horizon=1000)
        raw["estimator"] = {"mode": "monte_carlo", "samples": 2000}
        raw["step_count"] = 8
        raw["emit_step_trace"] = True
        yield f"run-{policy}-mc", "run", raw
    sweep = demo_config(policy="faircg1", horizon=3000)
    sweep["sweep_betas"] = [0.18, 0.54]
    yield "sweep", "sweep", sweep
    yield "opt", "opt", demo_config()


def test_csv_bytes_and_query_counts_match_the_pinned_digests(tmp_path, capsys):
    digests = {}
    queries = {}
    for label, command, raw in _jobs():
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / label
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest = out / "manifest.txt"
        if manifest.exists():
            pairs = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
            queries[label] = int(pairs["oracle_queries"])
    capsys.readouterr()
    assert digests == PINNED_CSV_SHA256
    assert queries == PINNED_ORACLE_QUERIES
