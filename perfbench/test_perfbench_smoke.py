"""Smoke test of the benchmark itself: reduced sizes, every workload and mode.

Runs ``perfbench/run.py --smoke`` in a child process, so the module
attributes the tracer swaps never touch this test session's imports.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_reports_every_metric_and_runs_every_check():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke": "ok", "problems": 0}'
