"""Stress and edge tests for the simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, Resource, SimulationError
from repro.sim.event import AllOf


def test_many_processes_complete_in_time_order():
    sim = Simulator()
    finished = []

    def worker(delay):
        yield sim.timeout(delay)
        finished.append(delay)

    delays = [((i * 7919) % 1000) / 10.0 for i in range(500)]
    for d in delays:
        sim.process(worker(d))
    sim.run()
    assert finished == sorted(delays)


def test_deep_yield_from_chain():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1.0)
            return 0
        v = yield from level(n - 1)
        return v + 1

    assert sim.run_process(level(200)) == 200


def test_resource_fairness_under_contention():
    """FIFO grant order: requesters are served strictly in arrival
    order regardless of how long they hold the resource."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, arrive, hold):
        yield sim.timeout(arrive)
        yield res
        order.append(tag)
        yield sim.timeout(hold)
        res.release()

    # Arrivals 0..9; varying holds.
    for i in range(10):
        sim.process(user(i, arrive=float(i) * 0.001,
                         hold=float((i * 13) % 7) + 0.5))
    sim.run()
    assert order == list(range(10))


def test_capacity_n_resource_allows_n_concurrent():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    concurrent = []
    peak = []

    def user():
        yield res
        concurrent.append(1)
        peak.append(len(concurrent))
        yield sim.timeout(5.0)
        concurrent.pop()
        res.release()

    for _ in range(9):
        sim.process(user())
    sim.run()
    assert max(peak) == 3


def test_allof_with_many_children():
    sim = Simulator()
    events = [sim.timeout(float(i % 17)) for i in range(300)]
    combo = AllOf(sim, events)
    sim.run()
    assert combo.processed
    assert len(combo.value) == 300


def test_run_until_mid_queue_is_resumable():
    sim = Simulator()
    log = []

    def worker():
        for k in range(5):
            yield sim.timeout(10.0)
            log.append(sim.now)

    sim.process(worker())
    sim.run(until=25.0)
    assert log == [10.0, 20.0]
    assert sim.now == 25.0
    sim.run()
    assert log == [10.0, 20.0, 30.0, 40.0, 50.0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e5,
                          allow_nan=False), min_size=1, max_size=60))
def test_property_clock_is_monotone(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        ev = sim.timeout(d)
        ev.add_callback(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert sim.now == max(delays)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30))
def test_property_resource_never_oversubscribed(capacity, nusers):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    level = {"now": 0, "peak": 0}

    def user(hold):
        yield res
        level["now"] += 1
        level["peak"] = max(level["peak"], level["now"])
        yield sim.timeout(hold)
        level["now"] -= 1
        res.release()

    for i in range(nusers):
        sim.process(user(float((i % 4) + 1)))
    sim.run()
    assert level["peak"] <= capacity
    assert res.in_use == 0
