"""Unit tests for Resource."""

import pytest

from repro.sim import Simulator, Resource, SimulationError

from tests.sim.grant_log import GrantLog
from tests.sim.reference_core import BOTH_CORES


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


def test_wait_stats_record_queueing_delay():
    sim = Simulator()
    res = GrantLog(sim, capacity=1)

    def user(hold):
        yield res
        yield sim.timeout(hold)
        res.release()

    sim.process(user(3))
    sim.process(user(3))
    sim.run()
    # First waits 0, second waits 3.
    assert res.acquisitions == 2
    assert res.wait_total == pytest.approx(3.0)
    assert res.wait_max == pytest.approx(3.0)


@BOTH_CORES
def test_killed_waiter_does_not_swallow_the_slot(core):
    # The waiter dies in the FIFO; release() must skip it and free the
    # slot, or every later acquirer blocks forever and run() returns.
    sim = core()
    res = GrantLog(sim, capacity=1)
    served = []

    def holder():
        yield res
        yield 5.0
        res.release()

    def waiter():
        yield res
        served.append(("waiter", sim.now))
        res.release()

    def late():
        yield 6.0
        yield res
        served.append(("late", sim.now))
        res.release()

    sim.process(holder())
    victim = sim.process(waiter())
    sim.process(late())
    sim.run(until=1.0)
    assert res.queue_length == 1
    victim.kill()
    sim.run()
    assert served == [("late", 6.0)]
    assert res.in_use == 0 and res.queue_length == 0
    # The dead waiter is neither granted nor charged a wait.
    assert res.acquisitions == 2 and res.wait_total == 0.0
