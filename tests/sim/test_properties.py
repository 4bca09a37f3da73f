"""Property-based tests for the simulation kernel (hypothesis)."""

import statistics

from hypothesis import given, settings, strategies as st

from repro.sim.core import Simulator, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.stats import Sampler


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                       max_size=50))
def test_clock_is_monotone_over_arbitrary_schedules(delays):
    """Events always execute in non-decreasing time order."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=30))
def test_processes_wake_exactly_after_their_timeout(delays):
    sim = Simulator()
    wakeups = []

    def proc(delay):
        yield Timeout(delay)
        wakeups.append((delay, sim.now))

    for delay in delays:
        sim.spawn(proc(delay))
    sim.run()
    for delay, woke_at in wakeups:
        assert woke_at == delay


@given(items=st.lists(st.integers(), min_size=1, max_size=100))
def test_store_is_fifo_for_any_item_sequence(items):
    sim = Simulator()
    store = Store(sim)
    for item in items:
        store.put(item)
    out = [store.get().value for _ in items]
    assert out == items


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.1, max_value=10.0),
                   min_size=1, max_size=30),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    violations = []
    granted = []

    def worker(hold):
        yield res.request()
        granted.append(hold)
        if res.in_use > capacity:
            violations.append(res.in_use)
        yield Timeout(hold)
        res.release()

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    assert not violations
    assert res.in_use == 0
    assert len(granted) == len(holds)


@given(values=st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=2, max_size=200,
))
def test_sampler_agrees_with_statistics_module(values):
    sampler = Sampler()
    sampler.extend(values)
    expected = statistics.mean(values)
    assert abs(sampler.mean - expected) <= max(1e-6, abs(expected) * 1e-9) + 1e-6
    assert sampler.minimum == min(values)
    assert sampler.maximum == max(values)
    assert sampler.count == len(values)


@given(seed_delays=st.lists(st.floats(min_value=0.0, max_value=10.0),
                            min_size=1, max_size=20))
def test_replaying_schedule_is_deterministic(seed_delays):
    def run_once():
        sim = Simulator()
        trace = []

        def proc(i, delay):
            yield Timeout(delay)
            trace.append((i, sim.now))

        for i, delay in enumerate(seed_delays):
            sim.spawn(proc(i, delay))
        sim.run()
        return trace

    assert run_once() == run_once()
