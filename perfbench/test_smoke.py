"""Smoke test of the benchmark harness: every workload, both modes, one small
instance, metric names and units as BENCHMARK.json declares them.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_reports_declared_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (0, 1)
    }
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    seen = {(line["workload"], line["trace"]) for line in lines}
    assert seen == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    for line in lines:
        result = line["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want[line["trace"]]
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and m["value"] > 0, name
