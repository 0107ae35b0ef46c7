"""Self-test of the benchmark harness at the tiny ``smoke`` scale.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload — the two ``BENCHMARK.json`` gates and ``head_anon`` —
runs once untraced and once traced; each run must be correct, exit
cleanly and emit exactly the metrics ``BENCHMARK.json`` declares, with
their units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "3", "--trace", str(trace),
            "--scale", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_gated_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_emits_every_metric_with_its_unit(workload, trace):
    details, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    for shutdown in details["shutdowns"]:
        assert shutdown == {
            "exit_code": 0, "surviving_processes": 0, "leaked_segments": []
        }
    if trace:
        # The traced write path partitions the ingestor's own timers.
        assert details["write_path_traced_over_report"] == pytest.approx(
            1.0, abs=0.1
        )
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_without_program_source_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload",
            SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
