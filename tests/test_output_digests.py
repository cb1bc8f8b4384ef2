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
    "run-faircg1/bounds.csv": "c1a53c157793f277c4d60e744c399899f59fce567b1e94d252eef4e49e970b15",
    "run-faircg1/convergence.csv": "03f71d723230b06932c0c12a4abae310b736855be9ef1320c6d44cb04f43d918",
    "run-faircg1/fractions.csv": "7546695a853a0c814910e5f0ec27db865c4bc3110deeb469ea88cc51f71803a1",
    "run-faircg1/rounds.csv": "904434c508249f59ad038eed629a511f908d476672dd5b0c30735c3d525ba1cb",
    "run-faircg1/steps.csv": "7f0abf80e3455f481e5cfae12daaf5e686fdc303fb71e708bcc3bee431f34660",
    "run-faircg2/bounds.csv": "5864aa25864b26c04c2889801173ba921fbdf531e10c4f1a8f1dceb1841d3434",
    "run-faircg2/convergence.csv": "7e61e698aaf475aab5b80cc976f77d2721b3c7ba5d7d2d633bf02c238cae7b8a",
    "run-faircg2/fractions.csv": "10ffc0955c9779b8459ad591722877fd927eef22170db63234cdb93c3a5ba67b",
    "run-faircg2/rounds.csv": "860be1e74f19d305957f6222b573ee29867318ab3d05781efa58092f922b9700",
    "run-faircg2/steps.csv": "f4baf08c01a5fe4e4eeba470e72eb2a6b1de12ea0d8239a1039d4bbbf739bee0",
    "run-faircg1-mc/bounds.csv": "973f01b7e5819100bfd8d78ad4afb0e1575fda58d9f9d4d877f94bd689ed8308",
    "run-faircg1-mc/convergence.csv": "9a490120e15171dd93bfb5d6a91604edaf6f76da9ba6127fa0002dbfaf783528",
    "run-faircg1-mc/fractions.csv": "1c8b4956c88a362cb9ea02aeca796e5cadc3b1b33e81e1c3db5c624a7b4bf35e",
    "run-faircg1-mc/rounds.csv": "294c9fb13462f22261c6ab19881654f356df5b6f564dc87ee3b920c56e7ba4ae",
    "run-faircg1-mc/steps.csv": "4efbfb107cd85aeda4dd35861ab2a4105915a888db859ef06639b250699584f8",
    "run-faircg2-mc/bounds.csv": "a2d2f49a0717dcddccf71489c74ea06cd3537f65900a5387d4dac4b60a6bec62",
    "run-faircg2-mc/convergence.csv": "22c41e2f6db1f2c423af68f21fc9cd8352ed4de73d25a0258680681e859f2383",
    "run-faircg2-mc/fractions.csv": "5c71f87f23340fd90ced1efff4cffd501c1d69464c58117a85a70950e1902d61",
    "run-faircg2-mc/rounds.csv": "2bc42ff0d449127a3e82c146b7dec5254ef0e5799d372477720923fd2a2bcd47",
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
    "sweep/sweep.csv": "927b8f7a3a7ec57bc2a7e29409c77efa88f36becda7ac7342a1c6d3cb270b7e8",
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
