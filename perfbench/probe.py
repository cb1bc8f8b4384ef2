"""Set-up probe: what a fresh process pays before it can run a job.

  python3 perfbench/probe.py CONFIG.json PROFILE

Imports the program, parses the config and builds its worker pool and
oracle, then exits. run.py times the whole process from start to exit.
"""
import json
import sys

from fairsel.config import parse_config

with open(sys.argv[1]) as fh:
    config = parse_config(json.load(fh), profile=sys.argv[2])
config.build_pool()
config.build_oracle()
