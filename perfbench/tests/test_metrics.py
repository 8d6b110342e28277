"""Metric extraction from recorded results (no processes started)."""

import json

import pytest

import render
import run

REF = run.CAL_REFERENCE_S


def _pass(cell_s, probe):
    return {
        "cell_s": cell_s,
        "cell_tx": [100] * len(cell_s),
        "tx": 100 * len(cell_s),
        "wall_s": sum(cell_s),
        "probe_s": [probe] * (len(cell_s) + 1),
    }


def test_end_to_end_metrics_at_reference_speed():
    # the second pass ran on a host twice as slow: its probes took twice
    # as long, so at reference speed both passes cost the same
    record = {
        "trace": 0,
        "setup": [
            {"setup_s": 0.2, "probe_s": REF},
            {"setup_s": 0.4, "probe_s": 2 * REF},
            {"setup_s": 0.3, "probe_s": REF},
        ],
        "measure": {
            "passes": [_pass([1.0, 2.0], REF), _pass([2.0, 4.0], 2 * REF)],
            "build_s": 0.0,
            "warm": [[0.01, REF], [0.04, 2 * REF]],
            "maxrss_kb": 50 * 1024,
        },
    }
    metrics = run.metrics_from_record(record)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["us_per_tx"]["value"] == pytest.approx(3.0 / 200 * 1e6)
    assert metrics["us_per_tx"]["raw"] == pytest.approx(4.5 / 200 * 1e6)
    assert metrics["cold_s"]["value"] == pytest.approx(3.0)
    assert metrics["warm_s"]["value"] == pytest.approx(0.015)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(50.0)
    assert metrics["setup_s"]["n"] == 3
    assert all(m["unit"] == run.END_TO_END_UNITS[name] for name, m in metrics.items())


def test_figures_warm_cold_and_warm_come_from_the_cli_pairs():
    entry = {
        "cold": {"wall_s": 4.0, "maxrss_kb": 1},
        "warm": {"wall_s": 1.0, "maxrss_kb": 1},
        "probe_s": [REF, REF, 3 * REF],
    }
    record = {
        "trace": 0,
        "setup": [{"setup_s": 0.3, "probe_s": REF}],
        "measure": {
            "passes": [_pass([1.0], REF)],
            "build_s": 0.0,
            "pairs": [{"4": entry, "tv": entry}],
            "cli_maxrss_kb": 60 * 1024,
        },
    }
    metrics = run.metrics_from_record(record)
    assert metrics["cold_s"]["value"] == pytest.approx(8.0)
    # the warm passes sat between probes of 1x and 3x: 2x slower host
    assert metrics["warm_s"]["value"] == pytest.approx(1.0)
    assert metrics["warm_s"]["raw"] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(60.0)


def _summary(spans, counters, groups=None):
    return {
        "spans": {
            name: {"count": count, "self_s": self_s, "total_s": total_s}
            for name, (count, self_s, total_s) in spans.items()
        },
        "counters": counters,
        "groups": groups or {},
    }


def test_per_layer_metrics_from_a_traced_record():
    cold = _summary(
        {
            "Simulator.run": (1, 2.0, 3.0),
            "Simulator.timeout": (800, 0.5, 0.5),
            "LockManager.acquire": (50, 0.25, 0.4),
            "ResultCache.store": (10, 0.1, 0.1),
        },
        {"tx": 100, "lock.waits": 5, "kernel.timeout_reuses": 600},
        {"setup.build": 0.01},
    )
    warm = _summary(
        {"ResultCache.load": (10, 0.05, 0.05), "execute_spec": (1, 0.0, 0.0)},
        {"cache.loads": 10, "cache.hits": 9},
    )
    span_layer = {
        "Simulator.run": "kernel", "Simulator.timeout": "kernel",
        "LockManager.acquire": "lockmgr", "ResultCache.store": "runner",
        "ResultCache.load": "runner", "execute_spec": "runner",
    }
    record = {
        "trace": 1,
        "failed": 1,
        "attempted": 4,
        "untraced_wall_s": 2.0,
        "traced": {"wall_s": 3.0, "summaries": [cold, warm], "span_layer": span_layer},
    }
    metrics = run.metrics_from_record(record)
    values = {name: metric["value"] for name, metric in metrics.items()}
    assert values["kernel.self_s"] == pytest.approx(2.5)
    assert values["kernel.timeouts_per_tx"] == pytest.approx(8.0)
    assert values["kernel.timeout_reuse_ratio"] == pytest.approx(0.75)
    assert values["lock.acquire_us"] == pytest.approx(0.4 / 50 * 1e6)
    assert values["lock.wait_ratio"] == pytest.approx(0.1)
    assert values["cache.hit_ratio"] == pytest.approx(0.9)
    assert values["runner.simulated_warm"] == 1
    assert values["setup.build_s"] == pytest.approx(0.01)
    assert values["2pc.commit_ratio"] == 0.0
    assert values["failed_share"] == pytest.approx(0.25)
    assert values["trace_overhead"] == pytest.approx(1.5)


def test_quartiles_of_one_sample_collapse():
    assert run.quartiles([2.0]) == {"q1": 2.0, "q3": 2.0, "n": 1}
    spread = run.quartiles([1.0, 2.0, 3.0, 4.0])
    assert spread["n"] == 4 and spread["q1"] < 2.0 < 3.0 < spread["q3"]


def test_render_groups_runs_into_median_rows(tmp_path):
    for seed, value in ((1, 10.0), (2, 30.0), (3, 20.0)):
        (tmp_path / f"closed-cpu-seed{seed}-trace0.json").write_text(json.dumps({
            "workload": "closed-cpu", "trace": 0, "seed": seed,
            "settings": {"commit": "0123456789abcdef"},
            "metrics": {"us_per_tx": {"value": value, "unit": "us"}},
        }))
    rows = render.csv_rows([f"parent={tmp_path}"])
    assert [row["label"] for row in rows] == ["parent"] * 3
    table = render.markdown_table(
        {key: str(value) for key, value in row.items()} for row in rows
    )
    assert "| closed-cpu | us_per_tx | us | parent | 20 | 10 | 30 | 3 |" in table
