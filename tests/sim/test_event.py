"""Unit tests for the event primitives."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.event import AllOf


def test_event_starts_pending():
    sim = Simulator()
    ev = sim.event("e")
    assert not ev.triggered
    assert not ev.processed


def test_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    sim.run()
    assert ev.processed
    assert ev.ok
    assert ev.value == 42


def test_succeed_with_delay_fires_at_right_time():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x", delay=7.5)
    seen = []
    ev.add_callback(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError("nope"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_value_raises():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    sim.run()
    assert not ev.ok
    with pytest.raises(ValueError):
        _ = ev.value


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(5)
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [5]


def test_timeout_fires_after_delay():
    sim = Simulator()
    t = sim.timeout(3.0, value="v")
    sim.run()
    assert sim.now == 3.0
    assert t.value == "v"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_allof_waits_for_every_child():
    sim = Simulator()
    a, b, c = sim.timeout(1), sim.timeout(5), sim.timeout(3)
    combo = AllOf(sim, [a, b, c])
    fired_at = []
    combo.add_callback(lambda e: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [5.0]
    assert combo.value == [None, None, None]


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    combo = AllOf(sim, [])
    assert combo.triggered


def test_allof_propagates_failure():
    sim = Simulator()
    good = sim.timeout(1)
    bad = sim.event()
    bad.fail(RuntimeError("child"), delay=0.5)
    combo = AllOf(sim, [good, bad])
    sim.run()
    assert not combo.ok
    assert isinstance(combo.exception, RuntimeError)


def test_events_at_same_time_process_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(10):
        ev = sim.timeout(1.0, value=i)
        ev.add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == list(range(10))
