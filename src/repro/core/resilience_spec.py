"""The resilience axis of a scenario: what the front end does when work goes bad.

:class:`ResilienceSpec` is pure data, the ``resilience`` axis of a
:class:`~repro.core.scenario.ScenarioSpec`.  It composes four
deterministic mechanisms: per-class admission-to-completion
**deadlines**, **retry** with exponential backoff and seeded jitter,
bounded admission queues with **load shedding**
(``reject_newest`` / ``reject_oldest`` / ``by_class``), and
health-aware **circuit breaking** per shard (closed → open →
half-open with probe admissions).
:class:`~repro.core.resilience.ResilienceRuntime` runs them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.spec_codec import check_fields, spec_field
from repro.dbms.transaction import Priority


#: Shedding policies a bounded admission queue understands.
SHED_POLICIES = ("reject_newest", "reject_oldest", "by_class")


@dataclasses.dataclass(frozen=True)
class ResilienceSpec:
    """The resilience axis: what the front end does when work goes bad.

    All-default fields are inert mechanisms: no deadline means nothing
    times out, ``max_attempts=0`` means nothing retries, no queue cap
    means nothing is shed, ``breaker_enabled=False`` keeps routing
    health-blind.  A scenario only pays for what it turns on.

    ``deadline_s`` is the admission-to-completion budget per *attempt*;
    ``high_deadline_s`` overrides it for HIGH-priority transactions
    (per-class deadlines).  A timed-out or shed transaction re-enters
    the external queue up to ``max_attempts`` times after
    ``base_backoff_s * backoff_multiplier**attempt`` seconds, inflated
    by up to ``jitter_fraction`` of itself with seeded jitter.
    ``queue_cap`` bounds each shard's external queue; over-cap work is
    shed by ``shed_policy``.  The breaker knobs govern the per-shard
    health machine (see :class:`ShardBreaker`).
    """

    deadline_s: Optional[float] = spec_field(None, gt=0)
    high_deadline_s: Optional[float] = spec_field(None, gt=0)
    max_attempts: int = spec_field(0, ge=0)
    base_backoff_s: Optional[float] = spec_field(None, ge=0)
    backoff_multiplier: float = spec_field(2.0, ge=1)
    jitter_fraction: float = spec_field(0.0, ge=0, le=1)
    queue_cap: Optional[int] = spec_field(None, ge=1)
    shed_policy: str = spec_field("reject_newest", choices=SHED_POLICIES)
    breaker_enabled: bool = False
    breaker_window: int = spec_field(20, ge=1)
    breaker_ewma_alpha: float = spec_field(0.2, gt=0, le=1)
    breaker_timeout_threshold: float = spec_field(0.5, gt=0, le=1)
    breaker_response_time_s: Optional[float] = spec_field(None, gt=0)
    breaker_open_s: float = spec_field(1.0, gt=0)
    breaker_probes: int = spec_field(3, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)
        # retries without an explicit backoff are almost always a
        # mistake (an accidental synchronized retry storm); naming 0.0
        # explicitly is how a scenario *asks* for the storm
        if self.max_attempts > 0 and self.base_backoff_s is None:
            raise ValueError(
                "max_attempts > 0 needs an explicit finite base_backoff_s "
                "(say 0.0 to retry immediately)"
            )

    def deadline_for(self, priority: int) -> Optional[float]:
        """The admission-to-completion budget for one priority class."""
        if priority == Priority.HIGH and self.high_deadline_s is not None:
            return self.high_deadline_s
        return self.deadline_s
