"""Tiny end-to-end runs: every metric BENCHMARK.json names comes out,
with its unit, and the output checks pass."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, REPO_ROOT

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(cwd, workload, trace, out_dir):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05", "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path):
    done = _run(REPO_ROOT, workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in named}
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    record_path = tmp_path / "results" / f"{workload}-seed3-trace{trace}.json"
    record = json.loads(record_path.read_text())
    assert len(record["sim_digest"]) == 64


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
