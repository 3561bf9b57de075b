"""Smoke test of the benchmark: every workload at small N, no timing gate.

Each run is a child process, so the tracing wrappers never touch the
chbreak modules of the test session.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _bench(run_py: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600, check=False)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    return line


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    line = _result(_bench(BENCH / "run.py", workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if workload == "ladder":
        assert line["metrics"]["grid.fft_per_live_step"]["value"] == 45
    if workload == "tracked":
        assert line["metrics"]["grid.interp_calls_per_track_sample"]["value"] == 9


def test_untraced_run_reports_end_to_end_metrics():
    line = _result(_bench(BENCH / "run.py", "ladder", 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = _bench(tmp_path / "bench" / "run.py", "ladder", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sweep_cells_that_lose_edge_decay_fail(tmp_path):
    # `chbreak sweep` marks such cells ok and exits 0; the benchmark does not
    columns = ("index", "status", "outcome", "criterion1", "t_bound", "t_star", "rate")
    rows = [("0", "ok", "breaking_detected", "false", "", "1.0", "-2.0"),
            ("1", "ok", "edge_decay_lost", "false", "", "", ""),
            ("2", "ok", "reached_horizon", "true", "1.7", "", "")]
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(",".join(r) for r in (columns, *rows)) + "\n")
    result = {"files": {"sweep": path}, "op": {"cells": 3}, "code": 0}
    problems = workloads.check_sweep([result], {})
    assert [bool(p) for p in problems] == [False, True, True]
