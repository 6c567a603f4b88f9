"""Unit tests for Resource."""

import pytest

from repro.sim import Simulator, Resource, SimulationError

from tests.sim.grant_log import GrantLog

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    # Nothing is queued, so the simulator is quiescent throughout.
    assert res.acquire_now()
    assert res.acquire_now()
    assert not res.acquire_now()
    assert res.in_use == 2


def test_release_grants_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(name, hold):
        yield res
        order.append((sim.now, name))
        yield hold
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


def test_wait_stats_record_queueing_delay():
    sim = Simulator()
    res = GrantLog(sim, capacity=1)

    def user(hold):
        yield res
        yield hold
        res.release()

    sim.process(user(3))
    sim.process(user(3))
    sim.run()
    # First waits 0, second waits 3.
    assert res.acquisitions == 2
    assert res.wait_total == pytest.approx(3.0)
    assert res.wait_max == pytest.approx(3.0)
