"""The paper's primary contribution: external scheduling with a tuned MPL.

The spec layer is pure data; building, hashing, decoding and serving
scenarios from the cache loads nothing else:

* :mod:`repro.core.scenario` — a scenario composed from orthogonal
  axes, its JSON codec (:mod:`repro.core.spec_codec`) and its outcome.
* :mod:`repro.core.arrivals` — arrival regimes: closed client
  populations, open Poisson sources, partly-open sessions, and
  time-varying (modulated) rates.
* :mod:`repro.core.system` / :mod:`repro.core.cluster_config` — the
  single-engine and sharded-cluster configs, and a run's result.
* :mod:`repro.core.faults`, :mod:`repro.core.resilience_spec`,
  :mod:`repro.core.distributed_spec` — the fault, resilience and 2PC
  axes.
* :mod:`repro.core.control_types` — the controllers' tolerances,
  baselines and reports.
* :mod:`repro.core.policies` — external-queue orderings (FIFO,
  priority, SJF), by name.

The runtime executes them, imported when a simulation first runs:

* :mod:`repro.core.frontend` — the MPL-limited dispatcher of Figure 1.
* :mod:`repro.core.sources` — the arrival processes a regime builds.
* :mod:`repro.core.simulation` — wiring + run harness.
* :mod:`repro.core.cluster` — N engines behind a routing front-end,
  with the global MPL split per shard, and fault injection.
* :mod:`repro.core.controller` — the feedback controller of §4.3.
* :mod:`repro.core.resilience` / :mod:`repro.core.distributed` —
  deadlines, retries, shedding and breakers; two-phase commit.
* :mod:`repro.core.tuner` — queueing-model jump-start + controller
  ("the tool" of the paper's conclusion).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.arrivals": (
        "ArrivalSpec", "ClosedArrivals", "ModulatedArrivals", "OpenArrivals",
        "PartlyOpenArrivals", "PiecewiseRate", "SinusoidRate",
    ),
    "repro.core.cluster": (
        "ClusteredSystem", "ShardedExternalScheduler", "build_system",
    ),
    "repro.core.cluster_config": ("ClusterConfig", "split_mpl"),
    "repro.core.control_types": ("ControllerReport", "Thresholds"),
    "repro.core.controller": ("MplController",),
    "repro.core.frontend": ("ExternalScheduler",),
    "repro.core.policies": (
        "FifoPolicy", "PriorityPolicy", "QueuePolicy", "SjfPolicy", "make_policy",
    ),
    "repro.core.simulation": ("SimulatedSystem",),
    "repro.core.sources": (
        "ArrivalProcess", "ClosedPopulation", "OpenPoisson", "OpenSource", "PartlyOpenSessions",
    ),
    "repro.core.system": ("RunResult", "SystemConfig"),
    "repro.core.tuner": ("MplTuner", "TuningResult"),
})
