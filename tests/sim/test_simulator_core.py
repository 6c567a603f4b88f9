"""Dual-core simulator tests: the pooled fast core against the
reference core, plus the max_events exhaustion-report regression."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.errors import SimulationError
from repro.sim.event import Event, Timeout

from tests.sim.grant_log import GrantLog
from tests.sim.reference_core import (
    BOTH_CORES, ReferenceSimulator, assert_shares_no_fast_path,
    spy_on_wait_points)


# ---------------------------------------------------------------------------
# max_events exhaustion must report the *pending* event's time
# ---------------------------------------------------------------------------

@BOTH_CORES
def test_max_events_reports_pending_event_time(core):
    sim = core()
    for t in (5.0, 10.0, 15.0):
        sim.timeout(t)
    with pytest.raises(SimulationError) as exc:
        sim.run(max_events=2)
    msg = str(exc.value)
    # Two events were processed; the third (t=15) is the one that the
    # budget refused — the report must carry *its* time, not the
    # previous step's clock.
    assert "2 events processed" in msg
    assert "t=15.000" in msg
    assert sim.now == 10.0


@BOTH_CORES
def test_max_events_budget_exactly_sufficient(core):
    sim = core()
    for t in (1.0, 2.0):
        sim.timeout(t)
    sim.run(max_events=2)          # no error: the budget covers it
    assert sim.events_processed == 2
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# Bit-identical schedules across the two cores
# ---------------------------------------------------------------------------

def _mixed_workload(sim, trace):
    """Ties, zero delays, contended grants — the order-sensitive shapes
    the fast lane and the wake tokens must not reorder."""
    res = Resource(sim, name="nic")

    def worker(tag, delays):
        for i, d in enumerate(delays):
            yield d
            trace.append((sim.now, tag, i))
            yield res
            trace.append((sim.now, tag, i, "holds"))
            yield 0.25 * i
            res.release()

    sim.process(worker("a", [1.0, 0.0, 0.0, 2.0, 0.0]))
    sim.process(worker("b", [1.0, 0.0, 1.0, 1.0]))
    sim.process(worker("c", [0.0, 1.0, 0.0, 3.0]))
    sim.process(worker("d", [2.0, 0.0, 0.0, 0.0, 0.0]))


def test_pooled_and_legacy_schedules_identical(monkeypatch):
    woke = spy_on_wait_points(monkeypatch)
    traces = []
    for core in (Simulator, ReferenceSimulator):
        woke.clear()
        sim = core()
        trace = []
        _mixed_workload(sim, trace)
        sim.run()
        traces.append((trace, sim.events_processed, sim.now))
        if core is Simulator:
            # The independence check has teeth: the fast core fails it.
            with pytest.raises(AssertionError):
                assert_shares_no_fast_path(sim, woke)
    assert traces[0] == traces[1]
    assert_shares_no_fast_path(sim, woke)


def test_lane_does_not_preempt_same_time_heap_entry():
    """A zero-delay event scheduled *while processing* t=5 must run
    after heap entries already queued for t=5 with smaller seq."""
    for core in (Simulator, ReferenceSimulator):
        sim = core()
        order = []
        a = sim.timeout(5.0)                       # seq 1, heap
        b = sim.timeout(5.0)                       # seq 2, heap

        def on_a(ev):
            order.append("a")
            c = sim.timeout(0.0)                   # lane in pooled mode
            c.add_callback(lambda _: order.append("c"))

        a.add_callback(on_a)
        b.add_callback(lambda _: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"], f"{core.__name__}: {order}"


# ---------------------------------------------------------------------------
# One wait carrier: a wake token on the fast core, a Timeout on the referee
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
    assert not woke


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
    assert not woke


def test_public_factories_never_pool():
    sim = Simulator()
    to = sim.timeout(1.0, value=42)
    ev = sim.event("keep-me")
    assert type(to) is Timeout
    assert type(ev) is Event
    sim.run()
    # Safe to read after the run.
    assert to.value == 42
    assert not ev.triggered


def test_legacy_mode_never_pools(monkeypatch):
    # The referee resumes every wake — a delay, a grant — through a
    # fresh Timeout, and never touches the lane.
    woke = spy_on_wait_points(monkeypatch)
    sim = ReferenceSimulator()
    res = Resource(sim)

    def sleeper():
        yield 1.0
        yield res

    sim.process(sleeper())
    sim.run()
    assert sim.now == 1.0
    assert woke == {Timeout}
    assert_shares_no_fast_path(sim, woke)


# ---------------------------------------------------------------------------
# peek / pending with the fast lane
# ---------------------------------------------------------------------------

def test_peek_and_pending_see_the_lane():
    sim = Simulator()
    assert sim.pending == 0
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    ev = sim.event("grant")
    ev.succeed()                       # zero delay -> fast lane
    assert sim.pending == 2
    assert sim.peek() == 0.0           # the lane entry is at now
    sim.step()
    assert ev.processed
    assert sim.pending == 1
    assert sim.peek() == 3.0


@BOTH_CORES
def test_run_until_advances_clock(core):
    sim = core()
    sim.timeout(2.0)
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert sim.events_processed == 1
