"""The installed runtime: what ``import mimobp`` loads, and the demos run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=timeout)


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency, and the split needs neither
    concurrent.futures nor multiprocessing: its helper is a plain fork."""
    res = run_python("-c", "import sys, mimobp; print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))",
                     timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    res = run_python(str(demo), timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
    assert "Traceback" not in res.stderr
