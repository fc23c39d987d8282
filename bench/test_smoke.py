"""Smoke test of the benchmark harness at its smallest size.

    python3 bench/test_smoke.py      (or: python3 -m pytest bench/test_smoke.py)

It checks only the shape of the results, so the harness cannot rot: the
last line of every workload's run in both modes names exactly the metrics
BENCHMARK.json lists, with their units; the scaling report runs at tiny
sizes; and the harness refuses to run without the rrsim sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_result_schema():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = _bench("bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.1", "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
            assert {name: m["unit"] for name, m in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in listed}
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_scaling_report_runs():
    proc = _bench("bench/scaling.py", "--sizes", "10,20")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert {r["status"] for r in report["rows"]} == {"ok"}


def test_refuses_to_run_without_sources():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("bench/run.py", "--workload", "paper", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    for test in (test_result_schema, test_scaling_report_runs, test_refuses_to_run_without_sources):
        test()
        print(f"{test.__name__}: ok")
