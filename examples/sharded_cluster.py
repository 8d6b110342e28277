"""Scale the external-scheduling result out to a sharded cluster —
Scenario API.

One declarative spec per cell: partly-open traffic × a 4-shard
topology × a static global MPL.  The demo sweeps the four routing
policies by swapping only the `TopologySpec`, then drops down to the
live system (`build_system` accepts a scenario directly) to re-split
the global MPL on the fly, the way a cluster operator (or the
per-shard feedback controllers) would.

Run:  PYTHONPATH=src python examples/sharded_cluster.py
"""

import dataclasses

from repro.core.arrivals import PartlyOpenArrivals
from repro.core.cluster import build_system
from repro.core.cluster_config import ROUTING_POLICIES
from repro.core.scenario import (
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    execute_scenario,
)

SHARDS = 4
PER_SHARD_RATE = 40.0  # tx/s offered per shard (~60% of capacity)

base = ScenarioSpec(
    workload=WorkloadRef(setup_id=1),
    arrival=PartlyOpenArrivals.for_load(
        PER_SHARD_RATE * SHARDS, 4.0, think_time_s=0.1
    ),
    topology=TopologySpec(shards=SHARDS),
    control=StaticMpl(8 * SHARDS),  # global MPL, split across the shards
    measurement=MeasurementSpec(transactions=400),
    seed=11,
)

print(f"== {SHARDS}-shard cluster, {PER_SHARD_RATE * SHARDS:.0f} tx/s offered ==")
for routing in ROUTING_POLICIES:
    scenario = dataclasses.replace(
        base, topology=TopologySpec(shards=SHARDS, routing=routing)
    )
    outcome = execute_scenario(scenario)
    print(
        f"{routing:16s} throughput {outcome.result.throughput:6.1f} tx/s   "
        f"mean RT {outcome.result.mean_response_time * 1000:6.1f} ms   "
        f"fingerprint {outcome.fingerprint[:12]}"
    )

print("\n== re-splitting the global MPL on a live cluster ==")
system = build_system(
    dataclasses.replace(
        base, topology=TopologySpec(shards=SHARDS, routing="least_in_flight")
    )
)
system.run_transactions(200)
for global_mpl in (8, 16, 48):
    split = system.scheduler.set_global_mpl(global_mpl)
    window = system.run_transactions(200)
    elapsed = window[-1].completion_time - window[0].completion_time
    throughput = (len(window) - 1) / elapsed if elapsed > 0 else 0.0
    print(f"global MPL {global_mpl:3d} -> per-shard {split}  "
          f"window throughput {throughput:6.1f} tx/s")

print("\nOne-shard clusters are bit-identical to the plain engine, so this "
      "topology is a pure superset of the paper's single-DBMS result.")
