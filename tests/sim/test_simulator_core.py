"""Dual-core simulator tests: the pooled fast core against the
reference core."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.event import Event
from repro.sim.process import _Wake

from tests.sim.drive import timer
from tests.sim.grant_log import GrantLog
from tests.sim.reference_core import (
    ReferenceSimulator, assert_shares_no_fast_path, spy_on_wait_points)


# ---------------------------------------------------------------------------
# Bit-identical schedules across the two cores (a mixed workload of ties,
# zero delays and contended grants is tests/sim/test_timed_wait.py's)
# ---------------------------------------------------------------------------

def test_lane_does_not_preempt_same_time_heap_entry():
    """A zero-delay event scheduled *while processing* t=5 must run
    after heap entries already queued for t=5 with smaller seq."""
    for core in (Simulator, ReferenceSimulator):
        sim = core()
        order = []
        a = timer(sim, 5.0)                        # seq 1, heap
        b = timer(sim, 5.0)                        # seq 2, heap

        def on_a(ev):
            order.append("a")
            c = timer(sim, 0.0)                    # lane in pooled mode
            c.add_callback(lambda _: order.append("c"))

        a.add_callback(on_a)
        b.add_callback(lambda _: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"], f"{core.__name__}: {order}"


# ---------------------------------------------------------------------------
# One wait carrier: a wake token on the fast core, an event on the referee
# ---------------------------------------------------------------------------

def test_timed_waits_allocate_no_events(monkeypatch):
    # A process that only sleeps queues its _Wake token, never an
    # event: no event resumes it.
    woke = spy_on_wait_points(monkeypatch)
    sim = Simulator()

    def sleeper():
        for d in (1.0, 0.0, 2.5, 0.0):
            yield d

    sim.process(sleeper())
    sim.run()
    assert sim.now == 3.5 and sim.events_processed == 6
    assert woke == {_Wake}


def test_grants_allocate_no_events(monkeypatch):
    # A free grant and a queued one both come as the waiter's _Wake
    # token: the same dispatch count a grant event had, no event.
    woke = spy_on_wait_points(monkeypatch)
    sim = Simulator()
    res = GrantLog(sim)

    def user(hold):
        yield res
        yield hold
        res.release()

    sim.process(user(2.0))
    sim.process(user(1.0))
    sim.run()
    # Two starts, two grants, two holds, two completions.
    assert sim.now == 3.0 and sim.events_processed == 8
    assert res.wait_total == 2.0
    assert woke == {_Wake}


def test_legacy_mode_never_pools(monkeypatch):
    # The referee resumes every wake — a delay, a grant — through a
    # fresh event, and never touches the lane; the check has teeth: the
    # fast core, run the same way, fails it.
    woke = spy_on_wait_points(monkeypatch)
    for core in (ReferenceSimulator, Simulator):
        woke.clear()
        sim = core()
        res = Resource(sim)

        def sleeper():
            yield 1.0
            yield res

        sim.process(sleeper())
        sim.run()
        assert sim.now == 1.0
        if core is ReferenceSimulator:
            assert woke == {Event}
            assert_shares_no_fast_path(sim, woke)
        else:
            with pytest.raises(AssertionError):
                assert_shares_no_fast_path(sim, woke)


# ---------------------------------------------------------------------------
# peek / pending with the fast lane
# ---------------------------------------------------------------------------

def test_peek_and_pending_see_the_lane():
    sim = Simulator()
    assert sim.pending == 0
    assert sim.peek() == float("inf")
    timer(sim, 3.0)
    assert sim.peek() == 3.0
    ev = sim.event("grant")
    ev.succeed()                       # zero delay -> fast lane
    assert sim.pending == 2
    assert sim.peek() == 0.0           # the lane entry is at now
    assert sim.run_before(3.0) == 1    # the lane entry, not the t=3 one
    assert ev.processed
    assert sim.pending == 1
    assert sim.peek() == 3.0
