"""The benchmark's own test: every workload at smoke size, untraced and traced.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each metric named in BENCHMARK.json is printed by name with its
unit, that fail_ratio is computed, and that the benchmark refuses to run in a
directory without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace), "--smoke"], capture_output=True, text=True, cwd=cwd, timeout=170)


def _value(lines: list[str], name: str) -> float:
    return float(next(line.split()[1] for line in lines if line.startswith(name + " ")))


def _printed(lines: list[str]) -> dict:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = _printed(lines[:-1])
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert printed["fail_ratio"] == "ratio"
        assert _value(lines, "fail_ratio") == result["failed"] / result["attempted"]
        breaks = int(next(line for line in lines if line.startswith("digest ")).split()[-1])
        assert _value(lines, "contract_break_ratio") == breaks / result["attempted"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOAD_NAMES[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
