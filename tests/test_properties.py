"""Property-based tests (hypothesis) on core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.mg1 import mg1_fifo_response_time, mg1_ps_response_time
from repro.queueing.mpl_ps_queue import MplPsQueue, h2_params
from repro.queueing.mva import Station, mva
from repro.queueing.throughput_model import ThroughputModel, balanced_min_mpl
from repro.sim.distributions import fit_hyperexponential
from repro.sim.engine import Simulator
from repro.dbms.cpu import ProcessorSharingPool


@given(
    mean=st.floats(min_value=1e-3, max_value=100.0),
    scv=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=150, deadline=None)
def test_fitted_distribution_mean_always_exact(mean, scv):
    dist = fit_hyperexponential(mean, scv)
    assert dist.mean == pytest.approx(mean, rel=1e-6)
    assert dist.variance >= -1e-12


@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6
    ),
    population=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=100, deadline=None)
def test_mva_invariants(demands, population):
    """Throughput is monotone in N, bounded by the bottleneck, and
    queue lengths always sum to the population."""
    stations = [Station(f"s{i}", demand=d) for i, d in enumerate(demands)]
    result = mva(stations, population)
    throughputs = result.throughputs
    assert all(b >= a - 1e-9 for a, b in zip(throughputs, throughputs[1:]))
    assert throughputs[-1] <= result.max_throughput * (1 + 1e-9)
    assert sum(result.queue_lengths[-1].values()) == pytest.approx(
        float(population), rel=1e-6
    )


@given(
    resources=st.integers(min_value=1, max_value=32),
    fraction=st.floats(min_value=0.05, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_balanced_min_mpl_achieves_fraction(resources, fraction):
    """The closed-form minimum MPL really achieves the fraction, and
    one less does not (unless it is already 1)."""
    mpl = balanced_min_mpl(resources, fraction)
    achieved = mpl / (mpl + resources - 1)
    assert achieved >= fraction - 1e-9
    if mpl > 1:
        below = (mpl - 1) / (mpl - 1 + resources - 1)
        assert below < fraction + 1e-9


@given(
    load=st.floats(min_value=0.05, max_value=0.98),
    scv=st.floats(min_value=1.0, max_value=25.0),
    mpl=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_qbd_between_fifo_and_ps(load, scv, mpl):
    """For any MPL the model's E[T] lies between the PS (lower) and
    FIFO (upper) references."""
    mean = 1.0
    lam = load / mean
    model = MplPsQueue(arrival_rate=lam, mpl=mpl, service_mean=mean,
                       service_scv=scv)
    value = model.mean_response_time()
    ps = mg1_ps_response_time(lam, mean)
    fifo = mg1_fifo_response_time(lam, mean, scv)
    assert value >= ps * (1 - 1e-6)
    assert value <= fifo * (1 + 1e-6)


@given(
    mean=st.floats(min_value=0.01, max_value=10.0),
    scv=st.floats(min_value=1.0, max_value=40.0),
)
@settings(max_examples=150, deadline=None)
def test_h2_params_valid_distribution(mean, scv):
    p, mu1, mu2 = h2_params(mean, scv)
    assert 0.0 < p <= 1.0
    assert mu1 > 0 and mu2 > 0


@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=8
    ),
    cores=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_cpu_pool_conserves_work(demands, cores):
    """The PS pool serves exactly the submitted work, never more."""
    sim = Simulator()
    pool = ProcessorSharingPool(sim, cores=cores)
    for demand in demands:
        pool.execute(demand)
    sim.run()
    assert pool.work_completed == pytest.approx(sum(demands), rel=1e-6)
    # the pool can never have been busier than `cores` the whole time
    assert pool.busy_core_time <= cores * sim.now * (1 + 1e-9) + 1e-9


@given(
    demands=st.lists(
        st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=6
    ),
)
@settings(max_examples=60, deadline=None)
def test_cpu_pool_finish_order_matches_demand_order(demands):
    """With equal weights and simultaneous arrival, smaller jobs never
    finish after larger ones (PS property)."""
    sim = Simulator()
    pool = ProcessorSharingPool(sim, cores=1)
    finish = {}
    for index, demand in enumerate(demands):
        event = pool.execute(demand)
        event.add_callback(lambda e, i=index: finish.setdefault(i, sim.now))
    sim.run()
    ordered = sorted(range(len(demands)), key=lambda i: demands[i])
    times = [finish[i] for i in ordered]
    assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_workload_sampling_never_produces_invalid_transactions(seed):
    from repro.workloads.setups import WORKLOADS

    rng = random.Random(seed)
    for spec in WORKLOADS.values():
        tx = spec.sample_transaction(rng, 1)
        assert tx.cpu_demand >= 0
        assert tx.page_accesses >= 0
        items = [item for item, _mode in tx.lock_requests]
        assert len(items) == len(set(items))


@given(
    fraction=st.floats(min_value=0.5, max_value=0.95),
    resources=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_model_min_mpl_monotone_in_fraction(fraction, resources):
    model = ThroughputModel.balanced(resources)
    lower = model.min_mpl_for_fraction(fraction)
    higher = model.min_mpl_for_fraction(min(0.99, fraction + 0.04))
    assert higher >= lower
