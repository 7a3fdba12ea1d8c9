"""Smoke test of the benchmark: every workload once at the ``tiny`` preset.

Checks that ``run.py --smoke`` reports every metric ``BENCHMARK.json``
names and that no cell fails the correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_reports_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert outcome == {"smoke": "ok", "problems": []}
