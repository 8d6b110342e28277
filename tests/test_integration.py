"""End-to-end integration tests reproducing the paper's phenomena."""

import pytest

from repro.core.arrivals import HIGH_PRIORITY_FRACTION
from repro.core.simulation import SimulatedSystem
from repro.core.system import SystemConfig
from repro.dbms.config import HardwareConfig, InternalPolicy
from repro.experiments.parallel import run_grid
from repro.experiments.runner import scenario_for
from repro.priority.evaluation import outcome_from_runs
from repro.queueing.mpl_ps_queue import MplPsQueue
from repro.workloads.setups import get_setup
from repro.workloads.synthetic import synthetic_workload


def run_cell(setup_id, mpl, transactions):
    """One closed run of a Table 2 setup (seed 9), through the runner."""
    [result] = run_grid([scenario_for(
        get_setup(setup_id), mpl=mpl, transactions=transactions, seed=9
    )])
    return result


def prioritized(setup_id, transactions, seed, **prio):
    """A §5 experiment: the prioritized cell and its "No Prio" twin."""
    setup = get_setup(setup_id)
    no_prio, result = run_grid([
        scenario_for(setup, transactions=transactions, seed=seed),
        scenario_for(
            setup, transactions=transactions, seed=seed,
            high_priority_fraction=HIGH_PRIORITY_FRACTION, **prio,
        ),
    ])
    return outcome_from_runs("", prio.get("mpl"), result, no_prio)


class TestThroughputPhenomena:
    """§3.1: what the MPL does to throughput."""

    def test_throughput_rises_then_saturates_with_mpl(self):
        low = run_cell(1, mpl=1, transactions=500).throughput
        mid = run_cell(1, mpl=5, transactions=500).throughput
        high = run_cell(1, mpl=20, transactions=500).throughput
        assert low < mid
        assert mid == pytest.approx(high, rel=0.10)

    def test_two_cpus_need_higher_mpl(self):
        """Figure 2: the 2-CPU machine keeps gaining beyond the 1-CPU
        saturation point."""
        gain_one = (
            run_cell(1, mpl=10, transactions=500).throughput
            / run_cell(1, mpl=3, transactions=500).throughput
        )
        gain_two = (
            run_cell(2, mpl=10, transactions=500).throughput
            / run_cell(2, mpl=3, transactions=500).throughput
        )
        assert gain_two > gain_one

    def test_more_disks_more_throughput_at_high_mpl(self):
        """Figure 3: the I/O workload scales with the disk count."""
        one_disk = run_cell(5, mpl=20, transactions=300)
        four_disks = run_cell(8, mpl=20, transactions=300)
        assert four_disks.throughput > 2.5 * one_disk.throughput

    def test_mpl_to_saturate_grows_with_disks(self):
        """Figure 3: one disk saturates by MPL 2; four disks do not."""
        one_low = run_cell(5, mpl=2, transactions=300)
        one_high = run_cell(5, mpl=16, transactions=300)
        four_low = run_cell(8, mpl=2, transactions=300)
        four_high = run_cell(8, mpl=16, transactions=300)
        assert one_low.throughput >= 0.85 * one_high.throughput
        assert four_low.throughput < 0.6 * four_high.throughput

    def test_uncommitted_read_outperforms_rr_at_high_concurrency(self):
        """Figure 5: less locking -> flatter curve at high MPL."""
        rr = run_cell(15, mpl=None, transactions=700)
        ur = run_cell(16, mpl=None, transactions=700)
        assert ur.throughput >= rr.throughput


class TestResponseTimePhenomena:
    """§3.2: what the MPL does to open-system mean response time."""

    def _open_config(self, scv, mpl, load=0.7, seed=5):
        workload = synthetic_workload("s", demand_mean_ms=20.0, scv=scv)
        return SystemConfig(
            workload=workload,
            hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                    bufferpool_mb=1024),
            mpl=mpl,
            arrival_rate=load / 0.020,
            seed=seed,
        )

    def test_low_variability_insensitive_to_mpl(self):
        flat_low = SimulatedSystem(self._open_config(1.0, 2)).run(1500)
        flat_high = SimulatedSystem(self._open_config(1.0, 30)).run(1500)
        assert flat_low.mean_response_time == pytest.approx(
            flat_high.mean_response_time, rel=0.35
        )

    def test_high_variability_punishes_low_mpl(self):
        """C^2 = 15 at MPL 1 shows heavy HOL blocking vs MPL 30."""
        hol = SimulatedSystem(self._open_config(15.0, 1)).run(2500)
        shared = SimulatedSystem(self._open_config(15.0, 30)).run(2500)
        assert hol.mean_response_time > 1.8 * shared.mean_response_time

    def test_simulator_matches_qbd_model(self):
        """Cross-validation: open-system simulation vs the CTMC.

        A pure-CPU workload through the MPL gate is exactly the
        FIFO -> PS(MPL) queue the model solves, so the two must agree.
        """
        scv, mpl, load = 5.0, 3, 0.7
        result = SimulatedSystem(
            self._open_config(scv, mpl, load=load, seed=11)
        ).run(20_000, warmup_fraction=0.1)
        model = MplPsQueue(arrival_rate=load / 0.020, mpl=mpl,
                           service_mean=0.020, service_scv=scv)
        assert result.mean_response_time == pytest.approx(
            model.mean_response_time(), rel=0.25
        )


class TestPrioritizationPhenomena:
    """§5: external prioritization at a tuned MPL."""

    def test_high_priority_wins_big_low_suffers_little(self):
        outcome = prioritized(1, 1200, seed=7, mpl=5, policy="priority")
        assert outcome.differentiation > 4.0
        assert outcome.low_penalty < 1.5
        assert outcome.throughput_loss < 0.15

    def test_internal_and_external_comparable(self):
        """Figure 12's message: POW and external-at-tuned-MPL are in
        the same differentiation ballpark."""
        external = prioritized(1, 1000, seed=7, mpl=5, policy="priority")
        internal = prioritized(1, 1000, seed=7, internal=InternalPolicy.pow_locks())
        assert internal.differentiation > 2.0
        assert external.differentiation > 2.0
        ratio = external.differentiation / internal.differentiation
        assert 0.3 < ratio < 20.0

    def test_sjf_external_policy_beats_fifo_on_mean(self):
        """Size-based external scheduling (an extension the paper
        suggests) reduces overall mean response time."""
        workload = synthetic_workload("s", demand_mean_ms=20.0, scv=10.0)
        hardware = HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                  bufferpool_mb=1024)

        def run(policy):
            config = SystemConfig(workload=workload, hardware=hardware,
                                  mpl=2, policy=policy, num_clients=50, seed=3)
            return SimulatedSystem(config).run(2000)

        assert run("sjf").mean_response_time < run("fifo").mean_response_time


class TestIsolationAndInternalPolicies:
    def test_ur_reduces_lock_waiting(self):
        rr = run_cell(13, mpl=20, transactions=600)
        ur = run_cell(14, mpl=20, transactions=600)
        assert ur.mean_lock_wait <= rr.mean_lock_wait

    def test_pow_preemptions_happen_under_contention(self):
        config = scenario_for(
            get_setup(1), mpl=None, internal=InternalPolicy.pow_locks(),
            high_priority_fraction=0.1, seed=9,
        ).build_config()
        system = SimulatedSystem(config)
        system.run(transactions=800)
        assert system.engine.lockmgr.preemptions > 0
