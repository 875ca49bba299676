"""Smoke test of the benchmark: every workload at a tiny trial count.

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Checks that each metric BENCHMARK.json names is printed with its unit and a
finite value, that no output check failed, and that the benchmark refuses
to run without the library's sources. It asserts no timing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_every_metric_present_and_no_failures():
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "5", "--seconds", "0",
                        "--trace", str(trace), "--smoke")
            result = _result(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert "failed_frac" in proc.stdout and "provenance" in proc.stdout


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        name = SPEC["workloads"][0]["name"]
        proc = _run(bare, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_workloads_match_spec, test_every_metric_present_and_no_failures,
                 test_refuses_to_run_without_sources):
        test()
        print(f"{test.__name__}: ok")
