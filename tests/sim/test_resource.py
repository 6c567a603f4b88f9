"""Unit tests for Resource and Queue."""

import pytest

from repro.sim import Simulator, Resource, Queue, SimulationError


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()
    assert res.in_use == 2


def test_release_grants_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(name, hold):
        yield res.acquire()
        order.append((sim.now, name))
        yield sim.timeout(hold)
        res.release()

    sim.process(user("a", 5))
    sim.process(user("b", 5))
    sim.process(user("c", 5))
    sim.run()
    assert order == [(0.0, "a"), (5.0, "b"), (10.0, "c")]


def test_release_idle_resource_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_utilization_tracks_busy_time():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield res.acquire()
        yield sim.timeout(4)
        res.release()
        yield sim.timeout(6)  # idle tail

    sim.run_process(user())
    assert res.utilization() == pytest.approx(0.4)


def test_utilization_counts_from_creation():
    sim = Simulator()
    sim.run(until=10.0)
    res = Resource(sim, capacity=2)

    def user():
        yield res.acquire()
        yield 4.0
        res.release()

    sim.process(user())
    sim.run(until=20.0)
    # One of two slots busy for 4 of the 10 us the resource has existed.
    assert res.utilization() == pytest.approx(0.2)


def test_wait_stats_record_queueing_delay():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(hold):
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    sim.process(user(3))
    sim.process(user(3))
    sim.run()
    # First waits 0, second waits 3.
    assert res.acquisitions == 2
    assert res.wait_total == pytest.approx(3.0)
    assert res.wait_max == pytest.approx(3.0)


def test_queue_put_then_get():
    sim = Simulator()
    q = Queue(sim)
    q.put("x")
    ev = q.get()
    assert ev.triggered
    sim.run()
    assert ev.value == "x"


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = Queue(sim)
    got = []

    def consumer():
        item = yield q.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(8)
        q.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(8.0, "late")]


def test_queue_fifo_across_getters():
    sim = Simulator()
    q = Queue(sim)
    got = []

    def consumer(tag):
        item = yield q.get()
        got.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    sim.run()
    q.put(1)
    q.put(2)
    sim.run()
    assert got == [("first", 1), ("second", 2)]
