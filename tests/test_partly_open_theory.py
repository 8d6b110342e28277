"""Analytic cross-check of the partly-open arrival regime (ROADMAP item).

Schroeder et al.'s open/closed criterion says a partly-open system
behaves like an *open* system when sessions are short (mean length
→ 1) and drifts toward *closed* behavior as sessions grow.  The same
way Figures 7/10 are locked to their queueing models, this suite pins
the `po` sweep to the analytic anchors of that criterion on a
single-resource workload the models describe exactly (one CPU, pure-CPU
demands, C² = 2 — an M/G/1 up to the MPL limit):

* **stability** — throughput equals the offered rate at every session
  mix (a partly-open system is open at the session level, so offered
  load below capacity must be carried);
* **open limit** — at mix 1 and unbounded MPL the mean response time
  matches M/G/1-PS;
* **FIFO limit** — at mix 1 and MPL 1 it falls in the
  Pollaczek–Khinchine band (≥ PS, ≈ M/G/1-FIFO);
* **MPL sensitivity** — for C² > 1 the open-ish regime pays a strict
  response-time penalty at MPL 1 (the paper's §3.2 criterion), seed by
  seed under common random numbers;
* **closed drift** — long sessions (mix 16) at generous MPL beat the
  short-session system at MPL 1 on average.
"""

import pytest

from repro.core.arrivals import PartlyOpenArrivals
from repro.core.simulation import SimulatedSystem
from repro.core.system import SystemConfig
from repro.dbms.config import HardwareConfig
from repro.experiments.figures import partly_open_grid
from repro.metrics import stats
from repro.queueing.mg1 import mg1_fifo_response_time, mg1_ps_response_time

#: One CPU, database fully cached: the engine degenerates to a single
#: PS server with the workload's CPU demand — exactly what the M/G/1
#: references describe.
SERVICE_MEAN_S = 0.020
SERVICE_SCV = 2.0
LOAD = 0.6
RATE = LOAD / SERVICE_MEAN_S  # 30 tx/s offered
SEEDS = (3, 7, 11, 23)
TRANSACTIONS = 2500


@pytest.fixture(scope="module")
def measurements():
    """All (mix, mpl, seed) cells the assertions below share."""
    from repro.workloads.synthetic import synthetic_workload

    workload = synthetic_workload(
        "po-crosscheck", demand_mean_ms=SERVICE_MEAN_S * 1000.0, scv=SERVICE_SCV
    )
    hardware = HardwareConfig(num_cpus=1, memory_mb=4096, bufferpool_mb=4096)
    cells = {}
    for mix, mpl in ((1.0, 1), (1.0, None), (16.0, None)):
        for seed in SEEDS:
            config = SystemConfig(
                workload=workload,
                hardware=hardware,
                mpl=mpl,
                seed=seed,
                arrival=PartlyOpenArrivals.for_load(RATE, mix),
            )
            cells[(mix, mpl, seed)] = SimulatedSystem(config).run(
                transactions=TRANSACTIONS
            )
    return cells


def _mean_rt(cells, mix, mpl):
    return stats.mean(
        [cells[(mix, mpl, seed)].mean_response_time for seed in SEEDS]
    )


class TestOpenClosedCriterion:
    def test_stability_throughput_tracks_offered_rate_at_every_mix(
        self, measurements
    ):
        """Below capacity, every mix must carry the offered load.

        Short sessions are checked seed-by-seed; long sessions make
        the finite measurement window bursty (a 2500-transaction run
        sees only ~150 sessions), so the mix-16 rate is held to the
        seed average instead.
        """
        for seed in SEEDS:
            for mpl in (1, None):
                observed = measurements[(1.0, mpl, seed)].throughput
                assert observed == pytest.approx(RATE, rel=0.05), (mpl, seed)
        mix16 = stats.mean(
            [measurements[(16.0, None, seed)].throughput for seed in SEEDS]
        )
        assert mix16 == pytest.approx(RATE, rel=0.10)

    def test_open_limit_matches_mg1_ps(self, measurements):
        """Mix 1 + unbounded MPL is the paper's open system: M/G/1-PS."""
        ps = mg1_ps_response_time(RATE, SERVICE_MEAN_S)
        assert _mean_rt(measurements, 1.0, None) == pytest.approx(ps, rel=0.25)

    def test_mpl_one_falls_in_the_pollaczek_khinchine_band(self, measurements):
        """Mix 1 + MPL 1 serializes the server: ≥ PS, ≈ M/G/1-FIFO."""
        ps = mg1_ps_response_time(RATE, SERVICE_MEAN_S)
        fifo = mg1_fifo_response_time(RATE, SERVICE_MEAN_S, SERVICE_SCV)
        observed = _mean_rt(measurements, 1.0, 1)
        assert observed >= 0.95 * ps
        assert observed == pytest.approx(fifo, rel=0.35)

    def test_low_mpl_penalty_for_variable_demand_every_seed(self, measurements):
        """§3.2's criterion: with C² > 1, MPL 1 strictly inflates the
        open-ish system's response time — paired per seed (common
        random numbers), like the paper's hardware experiments."""
        for seed in SEEDS:
            limited = measurements[(1.0, 1, seed)].mean_response_time
            unlimited = measurements[(1.0, None, seed)].mean_response_time
            assert limited > 1.1 * unlimited, seed

    def test_long_sessions_drift_toward_closed_behavior(self, measurements):
        """Mix 16 at generous MPL averages below the open-ish system
        pinned at MPL 1 — the closed-direction half of the criterion."""
        assert _mean_rt(measurements, 16.0, None) < _mean_rt(measurements, 1.0, 1)


class TestPoGridAnalyticInvariants:
    def test_offered_rate_is_mix_invariant_by_construction(self):
        """`for_load` holds the transaction rate constant across mixes
        — the property that makes the `po` figure's columns comparable."""
        specs = partly_open_grid(fast=True, mpls=(2, 8), rate=40.0)
        for spec in specs:
            assert spec.arrival.transaction_rate == pytest.approx(40.0)

    def test_mixes_span_open_to_nearly_closed(self):
        specs = partly_open_grid(fast=True, mpls=(2,))
        mixes = {spec.arrival.mean_session_length for spec in specs}
        assert min(mixes) == 1.0  # the pure-open corner is present
        assert max(mixes) >= 16.0  # and a strongly closed-leaning one
