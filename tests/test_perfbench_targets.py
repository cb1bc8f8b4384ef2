"""The benchmark's tracer wraps library names in place; they must exist.

perfbench/tracer.py reads each traced call site as ``owner.__dict__[attr]``
and installs its wrapper there, so a library name it lists that goes away
breaks every traced benchmark run. This checks the list against the library.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a fresh interpreter keeps the benchmark's modules out of this one, where
# hypothesis would draw constants from them for every later test
SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
targets = tracer._targets(lambda *args: 0.0)
print(json.dumps({
    "count": len(targets),
    "missing": [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ],
}))
"""


def test_every_traced_call_site_exists():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["count"] > 0 and not report["missing"], report["missing"]
