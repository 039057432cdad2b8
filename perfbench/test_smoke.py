"""Smoke test: every workload, untraced and traced, at tiny size. No timing bounds.

Run with: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def test_smoke_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(result["workloads"])
    for name, metrics in result["workloads"].items():
        assert {k: v["unit"] for k, v in metrics["end_to_end"].items()} == end_to_end, name
        assert {k: v["unit"] for k, v in metrics["per_layer"].items()} == per_layer, name
