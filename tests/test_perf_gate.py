"""The benchmark gate (``tools/perf_gate.py``) against synthetic runs.

Each case writes perfbench-shaped run records for the workloads in the
checked-in ``PERF_RECORD.json`` and checks that the gate passes at the
recorded values and exits 1 on each kind of failure it guards.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(REPO_ROOT, "PERF_RECORD.json")
GATE_PATH = os.path.join(REPO_ROOT, "tools", "perf_gate.py")

_spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

with open(RECORD_PATH, encoding="utf-8") as _handle:
    RECORD = json.load(_handle)


def _write_runs(results_dir, skip=(), **overrides):
    """One run record per recorded workload, at the recorded values.

    ``overrides`` maps a field to its value for every written run:
    ``us_per_tx_ratio``, ``warm_s_ratio`` and ``setup_s_ratio`` scale
    the recorded ``us_per_tx``, ``warm_s`` and ``setup_s``,
    ``cold_warm`` sets ``cold_s / warm_s``, ``failed`` the failed cells.
    """
    os.makedirs(results_dir, exist_ok=True)
    for workload, entry in RECORD["workloads"].items():
        if workload in skip:
            continue
        warm_s = entry["warm_s"] * overrides.get("warm_s_ratio", 1.0)
        run = {
            "workload": workload,
            "seed": entry["seed"],
            "trace": 0,
            "attempted": 120,
            "failed": overrides.get("failed", 0),
            "metrics": {
                "us_per_tx": {
                    "value": entry["us_per_tx"] * overrides.get("us_per_tx_ratio", 1.0),
                    "unit": "us",
                },
                "cold_s": {"value": warm_s * overrides.get("cold_warm", 300.0), "unit": "s"},
                "warm_s": {"value": warm_s, "unit": "s"},
                "setup_s": {
                    "value": entry["setup_s"] * overrides.get("setup_s_ratio", 1.0),
                    "unit": "s",
                },
            },
        }
        path = perf_gate.result_path(str(results_dir), workload, entry["seed"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(run, handle)


def _gate(results_dir):
    return perf_gate.main([RECORD_PATH, str(results_dir)])


def test_checked_in_record_gates_closed_cpu_and_cluster_faults():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = {entry["name"] for entry in json.load(handle)["workloads"]}
    assert set(RECORD["workloads"]) == {"closed-cpu", "cluster-faults"} <= workloads
    for entry in RECORD["workloads"].values():
        assert entry["seed"] == 1
        assert len(entry["runs"]) >= 3
        assert entry["us_per_tx"] == statistics.median(entry["runs"])
        assert entry["commit"] and entry["host"]
        assert len(entry["warm_s_runs"]) >= 5
        assert entry["warm_s"] == statistics.median(entry["warm_s_runs"])
        assert entry["warm_s_commit"] and entry["warm_s_host"]
        assert len(entry["setup_s_runs"]) >= 5
        assert entry["setup_s"] == statistics.median(entry["setup_s_runs"])
        assert entry["setup_s_commit"] and entry["setup_s_host"]


def test_passes_at_the_recorded_values(tmp_path, capsys):
    _write_runs(tmp_path)
    assert _gate(tmp_path) == 0
    assert capsys.readouterr().out.count("perf-gate ") == len(RECORD["workloads"])


@pytest.mark.parametrize("ratio, status", [(2.0, 0), (2.01, 1)])
def test_us_per_tx_above_twice_the_record_fails(tmp_path, capsys, ratio, status):
    _write_runs(tmp_path, us_per_tx_ratio=ratio)
    assert _gate(tmp_path) == status
    if status:
        err = capsys.readouterr().err
        for workload in RECORD["workloads"]:
            assert f"{workload}: us_per_tx" in err
        assert "2.01x the record's" in err


@pytest.mark.parametrize("ratio, status", [(2.0, 0), (2.01, 1)])
def test_warm_s_above_twice_the_record_fails(tmp_path, capsys, ratio, status):
    _write_runs(tmp_path, warm_s_ratio=ratio)
    assert _gate(tmp_path) == status
    if status:
        err = capsys.readouterr().err
        for workload in RECORD["workloads"]:
            assert f"{workload}: warm_s" in err
        assert "2.01x the record's" in err
        assert "us_per_tx" not in err


@pytest.mark.parametrize("ratio, status", [(2.0, 0), (2.01, 1)])
def test_setup_s_above_twice_the_record_fails(tmp_path, capsys, ratio, status):
    _write_runs(tmp_path, setup_s_ratio=ratio)
    assert _gate(tmp_path) == status
    if status:
        err = capsys.readouterr().err
        for workload in RECORD["workloads"]:
            assert f"{workload}: setup_s" in err
        assert "2.01x the record's" in err
        assert "us_per_tx" not in err and "warm_s" not in err


def test_a_failed_cell_fails(tmp_path, capsys):
    _write_runs(tmp_path, failed=1)
    assert _gate(tmp_path) == 1
    assert "closed-cpu: failed 1/120 cells" in capsys.readouterr().err


@pytest.mark.parametrize("cold_warm, status", [(10.0, 0), (9.0, 1)])
def test_cold_warm_ratio_below_ten_fails(tmp_path, capsys, cold_warm, status):
    _write_runs(tmp_path, cold_warm=cold_warm)
    assert _gate(tmp_path) == status
    if status:
        assert "cluster-faults: cold_s / warm_s is 9.0x" in capsys.readouterr().err


def test_missing_workload_result_fails(tmp_path, capsys):
    _write_runs(tmp_path, skip=("cluster-faults",))
    assert _gate(tmp_path) == 1
    captured = capsys.readouterr()
    assert "cluster-faults: no result" in captured.err
    assert "perf-gate closed-cpu" in captured.out


def test_command_line_exit_status(tmp_path):
    _write_runs(tmp_path, us_per_tx_ratio=2.01)
    command = [sys.executable, GATE_PATH, RECORD_PATH, str(tmp_path)]
    failing = subprocess.run(command, capture_output=True, text=True)
    assert failing.returncode == 1
    assert "error: perf-gate closed-cpu: us_per_tx" in failing.stderr
    _write_runs(tmp_path)
    assert subprocess.run(command, capture_output=True, text=True).returncode == 0
