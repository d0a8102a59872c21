"""Smoke test for scripts/run_verifications.py, which runs every harness."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_run_verifications_json():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verifications.py"),
         "--samples", "2", "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(reports) == 10
    for rep in reports:
        assert rep["samples"] == 2
        assert rep["failures"] == [], rep
