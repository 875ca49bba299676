"""The benchmark's own smoke run passes: its pinned counts, oracle
re-decisions and tracing patch points all still fit the library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
