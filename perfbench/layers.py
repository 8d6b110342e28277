"""The layer map: which public calls each layer's spans wrap, and the
per-layer metrics derived from a traced run.

A layer's self time is the self time of every span it owns.  Code that
never passes through a public call — transaction-coroutine bodies,
arrival generators, the PS pool's private timer callbacks — runs inside
``Simulator.run`` and so lands in ``kernel.self_s`` until the program
carries spans of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from spans import SpanRecorder, Target, install

# -- counts taken at the span boundaries ---------------------------------------


def _reuses_before(args: tuple) -> int:
    return args[0].timeout_reuses


def _count_reuse(recorder: SpanRecorder, args: tuple, result: Any, before: int) -> None:
    if args[0].timeout_reuses != before:
        recorder.count("kernel.timeout_reuses")


def _count_wait(recorder: SpanRecorder, args: tuple, result: Any, _: Any) -> None:
    if not result.triggered:
        recorder.count("lock.waits")


def _count_probes(recorder: SpanRecorder, args: tuple, result: Any, _: Any) -> None:
    recorder.count("control.probes", len(result.trajectory))


def _count_hit(recorder: SpanRecorder, args: tuple, result: Any, _: Any) -> None:
    recorder.count("cache.loads")
    if result is not None:
        recorder.count("cache.hits")


def _count_commit(recorder: SpanRecorder, args: tuple, result: Any, _: Any) -> None:
    # shard collectors tee every completion into the cluster-wide one,
    # so only the plain system-wide collector counts a commit once
    collector, tx = args[0], args[1]
    if type(collector).__name__ == "MetricsCollector":
        recorder.count("tx")
        recorder.count("txn.restarts", tx.restarts)


#: layer -> the public calls its spans wrap.
LAYERS: Dict[str, List[Target]] = {
    "kernel": [
        Target("repro.sim.engine", "Simulator.run"),
        Target("repro.sim.engine", "Simulator.timeout",
               before=_reuses_before, after=_count_reuse),
        Target("repro.sim.engine", "Simulator.event"),
        Target("repro.sim.engine", "Simulator.fired"),
        Target("repro.sim.engine", "Simulator.process"),
    ],
    "cpu": [
        Target("repro.dbms.cpu", "ProcessorSharingPool.execute"),
        Target("repro.dbms.cpu", "ProcessorSharingPool.set_weight"),
    ],
    "lockmgr": [
        Target("repro.dbms.lockmgr", "LockManager.acquire", after=_count_wait),
        Target("repro.dbms.lockmgr", "LockManager.release_all"),
        Target("repro.dbms.lockmgr", "LockManager.abort"),
    ],
    "txn": [
        Target("repro.dbms.engine", "DatabaseEngine.execute"),
        Target("repro.dbms.engine", "DatabaseEngine.abort"),
    ],
    "io": [
        Target("repro.dbms.disk", "DiskArray.submit"),
        Target("repro.dbms.disk", "Disk.submit"),
        Target("repro.dbms.wal", "LogManager.commit"),
    ],
    "frontend": [
        Target("repro.core.frontend", "ExternalScheduler.submit"),
        Target("repro.core.frontend", "ExternalScheduler.adopt"),
        Target("repro.core.frontend", "ExternalScheduler.drain_queue"),
    ],
    "router": [
        Target("repro.sim.station", "RouterStation.submit"),
        Target("repro.sim.station", "RouterStation.submit_to"),
        Target("repro.sim.station", "RouterStation.reroute"),
    ],
    "2pc": [
        Target("repro.core.distributed", "TwoPhaseCoordinator.submit"),
        Target("repro.core.distributed", "TwoPhaseCoordinator.prepared"),
        Target("repro.core.distributed", "TwoPhaseCoordinator.release"),
    ],
    "resilience": [
        Target("repro.core.resilience", "ResilienceRuntime.submit"),
        Target("repro.core.resilience", "ShardBreaker.admit"),
        Target("repro.core.resilience", "ShardBreaker.observe"),
    ],
    "control": [
        Target("repro.core.scenario", "ControlSpec.apply", subclasses=True),
        Target("repro.core.tuner", "MplTuner.tune"),
        Target("repro.core.controller", "MplController.tune", after=_count_probes),
        Target("repro.core.controller", "ClusterSloController.tune",
               after=_count_probes),
    ],
    "metrics": [
        Target("repro.metrics.collector", "MetricsCollector.on_completion",
               after=_count_commit),
        Target("repro.metrics.collector", "MetricsCollector.on_arrival"),
    ],
    "queueing": [
        Target("repro.queueing.mpl_ps_queue", "MplPsQueue.mean_response_time"),
        Target("repro.queueing.mpl_ps_queue", "MplPsQueue.ps_reference"),
        Target("repro.queueing.mva", "mva"),
    ],
    "runner": [
        Target("repro.experiments.parallel", "ParallelRunner.run"),
        Target("repro.experiments.parallel", "ResultCache.load", after=_count_hit),
        Target("repro.experiments.parallel", "ResultCache.store"),
        Target("repro.experiments.parallel", "execute_spec"),
    ],
    "build": [
        Target("repro.core.cluster", "build_system"),
    ],
    "codec": [
        Target("repro.core.scenario", "ScenarioSpec.fingerprint"),
        Target("repro.core.scenario", "ScenarioSpec.to_json_dict"),
        Target("repro.core.system", "RunResult.from_json_dict"),
    ],
}

#: Span groups whose inclusive time counts outermost spans only.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "control.apply": tuple(
        f"{name}.apply" for name in (
            "ControlSpec", "StaticMpl", "FeedbackMpl", "PerClassSlo",
            "ElasticMpl", "ClusterSlo",
        )
    ),
    "tuner.tune": ("MplTuner.tune",),
    "setup.build": ("build_system",),
}


def install_layers(recorder: SpanRecorder) -> Tuple[Dict[str, str], Callable[[], None]]:
    """Wrap every layer's calls; returns (span name -> layer, uninstall)."""
    span_layer: Dict[str, str] = {}
    undo = []
    for layer, targets in LAYERS.items():
        known = len(recorder.names)
        undo.append(install(recorder, targets))
        for name in recorder.names[known:]:
            span_layer[name] = layer

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return span_layer, uninstall


#: Per-layer metrics in BENCHMARK.json order: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernel.self_s": "s",
    "kernel.timeouts_per_tx": "1/tx",
    "kernel.events_per_tx": "1/tx",
    "kernel.timeout_reuse_ratio": "ratio",
    "cpu.bursts_per_tx": "1/tx",
    "cpu.execute_us": "us",
    "cpu.self_s": "s",
    "lock.acquires_per_tx": "1/tx",
    "lock.acquire_us": "us",
    "lock.wait_ratio": "ratio",
    "lock.self_s": "s",
    "txn.executes_per_tx": "1/tx",
    "txn.restart_ratio": "1/tx",
    "io.disk_submits_per_tx": "1/tx",
    "io.submit_us": "us",
    "io.log_commits_per_tx": "1/tx",
    "io.self_s": "s",
    "frontend.submits_per_tx": "1/tx",
    "frontend.submit_us": "us",
    "frontend.self_s": "s",
    "router.submits_per_tx": "1/tx",
    "router.submit_us": "us",
    "router.self_s": "s",
    "2pc.self_s": "s",
    "2pc.commit_ratio": "ratio",
    "resilience.self_s": "s",
    "resilience.goodput_ratio": "ratio",
    "resilience.retries_per_tx": "1/tx",
    "control.apply_s": "s",
    "control.self_s": "s",
    "control.probes": "count",
    "tuner.tune_s": "s",
    "collector.self_s": "s",
    "collector.completions_per_tx": "1/tx",
    "queueing.self_s": "s",
    "queueing.solves": "count",
    "runner.simulated_warm": "count",
    "cache.hit_ratio": "ratio",
    "cache.load_us": "us",
    "cache.store_us": "us",
    "setup.build_s": "s",
    "codec.self_s": "s",
    "failed_share": "ratio",
    "trace_overhead": "x",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_self_times(summary: Dict[str, Any], span_layer: Dict[str, str]) -> Dict[str, float]:
    """Self seconds per layer."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in summary["spans"].items():
        totals[span_layer[name]] += row["self_s"]
    return totals


def per_layer_metrics(
    summary: Dict[str, Any], warm: Dict[str, Any], span_layer: Dict[str, str]
) -> Dict[str, float]:
    """Every per-layer metric except ``failed_share`` and ``trace_overhead``.

    ``summary`` merges every traced phase; ``warm`` is the cache-served
    phase alone, which the runner and cache-hit figures describe.
    Counts are per committed transaction (``tx``) where named so.
    """
    spans, counters, groups = summary["spans"], summary["counters"], summary["groups"]
    tx = counters.get("tx", 0)

    def calls(*names: str) -> float:
        return sum(spans[name]["count"] for name in names if name in spans)

    def per_tx(*names: str) -> float:
        return _ratio(calls(*names), tx)

    def mean_us(name: str) -> float:
        row = spans.get(name)
        return _ratio(row["total_s"], row["count"]) * 1e6 if row else 0.0

    selfs = layer_self_times(summary, span_layer)
    return {
        "kernel.self_s": selfs["kernel"],
        "kernel.timeouts_per_tx": per_tx("Simulator.timeout"),
        "kernel.events_per_tx": per_tx(
            "Simulator.timeout", "Simulator.event", "Simulator.fired",
            "Simulator.process",
        ),
        "kernel.timeout_reuse_ratio": _ratio(
            counters.get("kernel.timeout_reuses", 0), calls("Simulator.timeout")
        ),
        "cpu.bursts_per_tx": per_tx("ProcessorSharingPool.execute"),
        "cpu.execute_us": mean_us("ProcessorSharingPool.execute"),
        "cpu.self_s": selfs["cpu"],
        "lock.acquires_per_tx": per_tx("LockManager.acquire"),
        "lock.acquire_us": mean_us("LockManager.acquire"),
        "lock.wait_ratio": _ratio(
            counters.get("lock.waits", 0), calls("LockManager.acquire")
        ),
        "lock.self_s": selfs["lockmgr"],
        "txn.executes_per_tx": per_tx("DatabaseEngine.execute"),
        "txn.restart_ratio": _ratio(counters.get("txn.restarts", 0), tx),
        "io.disk_submits_per_tx": per_tx("Disk.submit"),
        "io.submit_us": mean_us("Disk.submit"),
        "io.log_commits_per_tx": per_tx("LogManager.commit"),
        "io.self_s": selfs["io"],
        "frontend.submits_per_tx": per_tx("ExternalScheduler.submit"),
        "frontend.submit_us": mean_us("ExternalScheduler.submit"),
        "frontend.self_s": selfs["frontend"],
        "router.submits_per_tx": per_tx("RouterStation.submit"),
        "router.submit_us": mean_us("RouterStation.submit"),
        "router.self_s": selfs["router"],
        "2pc.self_s": selfs["2pc"],
        "2pc.commit_ratio": _ratio(
            counters.get("2pc.commits", 0), counters.get("2pc.attempts", 0)
        ),
        "resilience.self_s": selfs["resilience"],
        "resilience.goodput_ratio": _ratio(
            counters.get("resilience.completed", 0),
            counters.get("resilience.admitted", 0),
        ),
        "resilience.retries_per_tx": _ratio(counters.get("resilience.retries", 0), tx),
        "control.apply_s": groups.get("control.apply", 0.0),
        "control.self_s": selfs["control"],
        "control.probes": counters.get("control.probes", 0),
        "tuner.tune_s": groups.get("tuner.tune", 0.0),
        "collector.self_s": selfs["metrics"],
        "collector.completions_per_tx": per_tx("MetricsCollector.on_completion"),
        "queueing.self_s": selfs["queueing"],
        "queueing.solves": calls(
            "MplPsQueue.mean_response_time", "MplPsQueue.ps_reference", "mva"
        ),
        "runner.simulated_warm": warm["spans"].get("execute_spec", {}).get("count", 0),
        "cache.hit_ratio": _ratio(
            warm["counters"].get("cache.hits", 0), warm["counters"].get("cache.loads", 0)
        ),
        "cache.load_us": mean_us("ResultCache.load"),
        "cache.store_us": mean_us("ResultCache.store"),
        "setup.build_s": groups.get("setup.build", 0.0),
        "codec.self_s": selfs["codec"],
    }


def layer_table(
    summary: Dict[str, Any], span_layer: Dict[str, str], wall_s: float
) -> str:
    """Markdown: self time and call count per layer, largest first."""
    selfs = layer_self_times(summary, span_layer)
    calls = {layer: 0 for layer in LAYERS}
    for name, row in summary["spans"].items():
        calls[span_layer[name]] += row["count"]
    lines = ["| layer | self s | share of traced wall | calls |", "|---|---|---|---|"]
    for layer in sorted(selfs, key=selfs.get, reverse=True):
        lines.append(
            f"| {layer} | {selfs[layer]:.4f} | {_ratio(selfs[layer], wall_s):.1%} "
            f"| {calls[layer]} |"
        )
    outside = wall_s - sum(selfs.values())
    lines.append(
        f"| (outside any span) | {outside:.4f} | {_ratio(outside, wall_s):.1%} | |"
    )
    return "\n".join(lines)
