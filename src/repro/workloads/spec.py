"""Workload specifications: what a transaction mix looks like.

A :class:`WorkloadSpec` describes everything the simulator needs to
generate transactions: the type mix, per-type CPU/page/lock demands,
the database footprint (which, against a machine's cache, decides the
I/O intensity), and the hot-set sizes that drive lock contention.

The spec can also *analyze itself*: :meth:`WorkloadSpec.demand_moments`
computes the mean and C² of total service demand, the statistic the
paper's §3.2 identifies as the dominant factor for the response-time
safe MPL.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from repro.dbms.transaction import Priority, Transaction
from repro.sim.distributions import Distribution, Exponential


@dataclasses.dataclass(frozen=True)
class TransactionType:
    """One transaction type within a mix.

    Parameters
    ----------
    name:
        Type name (e.g. ``"NewOrder"``).
    weight:
        Relative frequency in the mix.
    cpu_demand:
        Distribution of total CPU seconds.
    page_accesses:
        Distribution of logical page touches (sampled then rounded).
    is_update:
        Whether commit forces a log write.
    hot_locks:
        Exclusive locks taken on the small hot item set (contended).
    shared_locks:
        Shared locks taken on the large item space (mostly
        uncontended; skipped entirely under Uncommitted Read).
    exclusive_locks:
        Exclusive locks on the large item space.
    """

    name: str
    weight: float
    cpu_demand: Distribution
    page_accesses: Distribution
    is_update: bool = False
    hot_locks: int = 0
    shared_locks: int = 0
    exclusive_locks: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight!r}")
        if min(self.hot_locks, self.shared_locks, self.exclusive_locks) < 0:
            raise ValueError("lock counts must be non-negative")


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload: mix + database footprint + lock geometry.

    Parameters
    ----------
    name:
        Workload name, e.g. ``"W_CPU-inventory"``.
    types:
        The transaction mix.
    db_mb:
        Database size in megabytes (Table 1's "Database" column).
    hot_set_size:
        Number of contended items (warehouse/district rows in TPC-C,
        best-seller stock in TPC-W).
    item_space:
        Size of the mostly-uncontended item id space.
    benchmark / configuration:
        Table 1 metadata strings (for reporting only).
    hot_access_fraction / hot_page_fraction:
        Page-access skew forwarded to the buffer-pool model.
    """

    name: str
    types: Tuple[TransactionType, ...]
    db_mb: int
    hot_set_size: int = 128
    item_space: int = 1_000_000
    benchmark: str = ""
    configuration: str = ""
    hot_access_fraction: float = 0.8
    hot_page_fraction: float = 0.2
    page_kb: int = 4
    #: Probability a transaction acquires its locks out of table order
    #: (application code paths that touch tables in a different order);
    #: this is what makes deadlocks possible, and their restart cost is
    #: the lock-thrashing mechanism behind Figure 5's decline.
    lock_disorder: float = 0.05

    def __post_init__(self) -> None:
        if not self.types:
            raise ValueError("a workload needs at least one transaction type")
        if self.db_mb <= 0:
            raise ValueError(f"db_mb must be positive, got {self.db_mb!r}")
        if self.hot_set_size < 1 or self.item_space < 1:
            raise ValueError("hot_set_size and item_space must be positive")
        # Sampling hot-path constants (frozen dataclass, so set via
        # object.__setattr__; not dataclass fields, so fingerprints and
        # equality are untouched).  repro.core.system.canonical_json
        # keeps the spec's canonical text the same way, on first use.
        object.__setattr__(self, "_total_weight", sum(t.weight for t in self.types))
        object.__setattr__(self, "_hot_bits", self.hot_set_size.bit_length())
        object.__setattr__(self, "_item_bits", self.item_space.bit_length())

    @property
    def db_pages(self) -> int:
        """Database size in pages."""
        return max(1, (self.db_mb * 1024) // self.page_kb)

    @property
    def total_weight(self) -> float:
        """Sum of type weights."""
        return self._total_weight

    def choose_type(self, rng: random.Random) -> TransactionType:
        """Draw a transaction type according to the mix weights."""
        target = rng.random() * self._total_weight
        acc = 0.0
        for tx_type in self.types:
            acc += tx_type.weight
            if target < acc:
                return tx_type
        return self.types[-1]

    def sample_transaction(
        self,
        rng: random.Random,
        tid: int,
        priority: int = Priority.LOW,
        client_id: Optional[int] = None,
    ) -> Transaction:
        """Generate one transaction instance with sampled demands."""
        tx_type = self.choose_type(rng)
        # demand draws, with the exponential case (nearly every Table 2
        # workload) devirtualized to a direct expovariate call
        demand = tx_type.cpu_demand
        if demand.__class__ is Exponential:
            cpu = rng.expovariate(1.0 / demand._mean)
        else:
            cpu = demand.sample(rng)
        pages_dist = tx_type.page_accesses
        if pages_dist.__class__ is Exponential:
            pages = max(0, round(rng.expovariate(1.0 / pages_dist._mean)))
        else:
            pages = max(0, round(pages_dist.sample(rng)))
        # Item draws replicate random.Random.randrange's rejection loop
        # verbatim (k = n.bit_length(); draw getrandbits(k) until < n),
        # consuming the stream bit-for-bit identically while skipping
        # two Python frames per draw — lock-item selection is the
        # hottest RNG path in the simulator.
        getrandbits = rng.getrandbits
        hot_set = self.hot_set_size
        hot_bits = self._hot_bits
        item_space = self.item_space
        item_bits = self._item_bits
        # Deduplicate as we draw (strongest mode kept): an exclusive
        # draw forces the mode to True, a shared draw only registers an
        # absent item — exactly `strongest[item] = strongest.get(item,
        # False) or exclusive` over the draw sequence, without building
        # the intermediate (item, mode) list.
        strongest: dict = {}
        for _ in range(tx_type.hot_locks):
            r = getrandbits(hot_bits)
            while r >= hot_set:
                r = getrandbits(hot_bits)
            strongest[r] = True
        for _ in range(tx_type.exclusive_locks):
            r = getrandbits(item_bits)
            while r >= item_space:
                r = getrandbits(item_bits)
            strongest[hot_set + r] = True
        if tx_type.shared_locks:
            random = rng.random
            for _ in range(tx_type.shared_locks):
                # shared reads also touch the hot rows part of the time,
                # as TPC-C's reads of warehouse/district rows do
                if random() < 0.3:
                    r = getrandbits(hot_bits)
                    while r >= hot_set:
                        r = getrandbits(hot_bits)
                    if r not in strongest:
                        strongest[r] = False
                else:
                    r = getrandbits(item_bits)
                    while r >= item_space:
                        r = getrandbits(item_bits)
                    item = hot_set + r
                    if item not in strongest:
                        strongest[item] = False
        # Acquire in item order: real OLTP transactions touch tables in
        # a fixed statement order, which is what keeps production
        # deadlock rates low.
        locks: List[Tuple[int, bool]] = sorted(strongest.items())
        if self.lock_disorder > 0 and len(locks) > 1:
            if rng.random() < self.lock_disorder:
                rng.shuffle(locks)
        return Transaction(
            tid=tid,
            type_name=tx_type.name,
            cpu_demand=cpu,
            page_accesses=pages,
            lock_requests=locks,
            is_update=tx_type.is_update,
            priority=priority,
            client_id=client_id,
        )

    # -- analytic self-description ------------------------------------------

    def cpu_demand_moments(self) -> Tuple[float, float]:
        """(mean, C²) of per-transaction CPU demand across the mix."""
        total = self.total_weight
        mean = sum(t.weight * t.cpu_demand.mean for t in self.types) / total
        second = sum(t.weight * t.cpu_demand.second_moment for t in self.types) / total
        if mean == 0:
            return 0.0, 0.0
        return mean, max(0.0, second / mean**2 - 1.0)

    def page_access_mean(self) -> float:
        """Mean logical page touches per transaction."""
        total = self.total_weight
        return sum(t.weight * t.page_accesses.mean for t in self.types) / total

    def demand_moments(
        self, disk_service_mean: float, miss_probability: float
    ) -> Tuple[float, float]:
        """(mean, C²) of total service demand (CPU + physical I/O).

        This is the workload-variability statistic of §3.2.  Per-type
        demand is CPU + pages * miss probability * disk time; the
        moments combine within-type variability and across-type mix
        variability.
        """
        total = self.total_weight
        mean = 0.0
        second = 0.0
        for t in self.types:
            io_mean = t.page_accesses.mean * miss_probability * disk_service_mean
            io_var = t.page_accesses.variance * (miss_probability * disk_service_mean) ** 2
            type_mean = t.cpu_demand.mean + io_mean
            type_var = t.cpu_demand.variance + io_var
            mean += t.weight * type_mean
            second += t.weight * (type_var + type_mean**2)
        mean /= total
        second /= total
        if mean == 0:
            return 0.0, 0.0
        return mean, max(0.0, second / mean**2 - 1.0)

    def update_fraction(self) -> float:
        """Fraction of transactions that are updates."""
        weight = sum(t.weight for t in self.types if t.is_update)
        return weight / self.total_weight
