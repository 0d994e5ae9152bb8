"""Self-test of the benchmark at toy shapes: report schema and metric names.

Runs every workload end to end, untraced and traced, on a two-layer model
with short inputs.  It checks no timings.  Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_process()

import workloads as W  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def test_benchmark_json_names_the_runner_and_its_workloads():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert NAMES == list(W.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_reports_every_metric(workload, trace):
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                           "--trace", str(trace)])
    report = run.run(args, scale=W.TOY)
    line = json.loads(json.dumps(run.result_line(report)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= (4 if trace else 2)
    assert report["checks"] and all(report["checks"].values())
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if trace:
        assert 0.0 < report["per_layer"]["trace.coverage_min"]["value"] <= 1.0
    else:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert not (HERE / "_work").exists()


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
