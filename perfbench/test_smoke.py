"""Smoke test of the benchmark: every workload at tiny scale, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that ``BENCHMARK.json`` agrees with ``catalog.py``, that each
workload prints every end-to-end (``--trace 0``) and per-layer
(``--trace 1``) metric with its unit, that a seed always yields the same
estimates, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.005"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(proc) -> str:
    match = re.search(r"estimate digest sha256=([0-9a-f]{64})", proc.stdout)
    assert match, proc.stdout[-3000:]
    return match.group(1)


def test_benchmark_json_matches_catalog():
    def listed(kind):
        return [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]

    assert listed("end_to_end") == list(catalog.END_TO_END)
    assert listed("per_layer") == list(catalog.per_layer())
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    emitted = {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
    if not trace:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name


def test_seed_fixes_the_estimates():
    first = _digest(_run("estimate_heavy", 0, seed=5))
    assert _digest(_run("estimate_heavy", 0, seed=5)) == first
    assert _digest(_run("estimate_heavy", 0, seed=6)) != first


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
