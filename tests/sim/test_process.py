"""Unit tests for generator processes."""

import pytest

from repro.sim import Simulator, SimulationError, ProcessKilled


def test_process_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2)
        return 99

    assert sim.run_process(worker()) == 99
    assert sim.now == 2.0


def test_process_receives_event_value():
    sim = Simulator()

    def worker():
        got = yield sim.timeout(1, value="payload")
        return got

    assert sim.run_process(worker()) == "payload"


def test_processes_interleave_in_time():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker("a", 1))
    sim.process(worker("b", 3))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "a"), (3.0, "b"), (6.0, "b")]


def test_fork_join_by_yielding_child_process():
    sim = Simulator()

    def child(n):
        yield sim.timeout(n)
        return n * 10

    def parent():
        kids = [sim.process(child(n)) for n in (1, 2, 3)]
        results = []
        for k in kids:
            results.append((yield k))
        return results

    assert sim.run_process(parent()) == [10, 20, 30]
    assert sim.now == 3.0


def test_subgenerator_with_yield_from():
    sim = Simulator()

    def inner():
        yield sim.timeout(4)
        return "inner-done"

    def outer():
        r = yield from inner()
        return r

    assert sim.run_process(outer()) == "inner-done"


def test_exception_in_process_surfaces_via_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        raise KeyError("oops")

    proc = sim.process(worker())
    sim.run()
    assert not proc.ok
    with pytest.raises(KeyError):
        _ = proc.value


def test_failed_event_is_thrown_into_process():
    sim = Simulator()
    bad = sim.event()
    bad.fail(ValueError("net down"), delay=1)

    def worker():
        try:
            yield bad
        except ValueError:
            return "recovered"
        return "not reached"

    assert sim.run_process(worker()) == "recovered"


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def worker():
        yield object()  # neither an Event nor a delay

    proc = sim.process(worker())
    with pytest.raises(SimulationError, match="an Event or a delay"):
        sim.run()
    assert proc.is_alive  # never completed


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_kill_interrupts_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(100)
        return "finished"

    proc = sim.process(worker())
    sim.run(until=5)
    proc.kill("test")
    sim.run()
    assert proc.triggered
    assert isinstance(proc.exception, ProcessKilled)


def test_kill_then_stale_wakeup_is_ignored():
    sim = Simulator()

    def worker():
        yield sim.timeout(10)

    proc = sim.process(worker())
    sim.run(until=1)
    proc.kill()
    # The pending timeout still fires at t=10; must not crash.
    sim.run()
    assert isinstance(proc.exception, ProcessKilled)


def test_run_process_detects_deadlock():
    sim = Simulator()

    def worker():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(worker())


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_guard():
    sim = Simulator()

    def looper():
        while True:
            yield sim.timeout(1)

    sim.process(looper())
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)
