"""The distributed axis of a scenario: cross-shard transactions over 2PC.

:class:`DistributedSpec` is pure data, the ``distributed`` axis of a
:class:`~repro.core.scenario.ScenarioSpec`.  A deterministic
``cross_shard_fraction`` of transactions fan their CPU / page / lock
demand across ``fanout_k`` shards and commit atomically through the
simulated two-phase commit of
:class:`~repro.core.distributed.TwoPhaseCoordinator`.
"""

from __future__ import annotations

from repro.core.spec_codec import check_fields, spec_field
from repro.core.specclass import specclass


#: Coordinator-placement policies: which participant runs the home
#: branch.  ``hash`` pins it to the hash-picked window start; ``lowest``
#: to the lowest shard index in the window.
COORDINATOR_POLICIES = ("hash", "lowest")


@specclass(frozen=True)
class DistributedSpec:
    """The distributed axis: cross-shard transactions over simulated 2PC.

    ``cross_shard_fraction`` of transactions (picked by a deterministic
    hash of the tid) fan out across ``fanout_k`` participant shards.
    An attempt that has not fully prepared within ``prepare_timeout_s``
    of simulated time aborts (when ``abort_on_prepare_timeout`` — else
    it waits, which can deadlock at the MPL level and is only safe
    under the resilience axis' deadlines).  ``coordinator`` picks which
    participant runs the home branch.
    """

    cross_shard_fraction: float = spec_field(0.1, ge=0, le=1)
    fanout_k: int = spec_field(2, ge=2)
    prepare_timeout_s: float = spec_field(0.5, gt=0)
    coordinator: str = spec_field("hash", choices=COORDINATOR_POLICIES)
    abort_on_prepare_timeout: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
