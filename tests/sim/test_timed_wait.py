"""The timed-wait contract: a process waits for time by yielding a
non-negative number (``float`` or ``int``, never ``bool``).

The fast core queues the process's ``_Wake`` token and resumes the
generator in its dispatch loop; the reference core builds a fresh
``Timeout`` per wait.  Every test runs on both, and the mixed schedule
must come out byte-identical between them.
"""

import numpy as np
import pytest

from repro.sim import ProcessKilled, Resource, SimulationError, Simulator

from tests.sim.grant_log import GrantLog
from tests.sim.reference_core import BOTH_CORES, ReferenceSimulator


def _mixed(sim):
    """Timed waits of every accepted type, grants on a contended
    resource, a barrier-style fan-out and fork/join — with ties."""
    trace = []
    res = GrantLog(sim, capacity=1, name="nic")
    gate = sim.event("gate")

    def mark(*what):
        trace.append((sim.now, *what))

    def child(tag, d):
        yield d
        mark(tag, "child done")
        return tag

    def worker(tag, delays):
        for i, d in enumerate(delays):
            yield d
            mark(tag, i, type(d).__name__)
            if not res.acquire_now():
                yield res
            yield 0.5
            res.release()
        yield gate
        mark(tag, "through gate")
        kid = sim.process(child(tag, delays[0]))
        mark(tag, "joined", (yield kid))

    def opener():
        yield 3
        gate.succeed()
        mark("gate opened")

    sim.process(worker("a", [1.0, 0.0, 2, np.float64(0.25), 0]))
    sim.process(worker("b", [1, 0.0, 1.0, 1.0]))
    sim.process(worker("c", [0.0, np.float64(1.0), 0.0, 3.0]))
    sim.process(opener())
    return trace, res


def test_mixed_schedule_identical_across_cores():
    runs = []
    for core in (Simulator, ReferenceSimulator):
        sim = core()
        trace, res = _mixed(sim)
        sim.run()
        runs.append((trace, sim.events_processed, sim.now,
                     res.acquisitions, res.wait_total, res.wait_max))
    assert runs[0] == runs[1]
    trace = runs[0][0]
    assert [t for t, *what in trace if what == ["gate opened"]] == [3.0]
    assert sum(1 for _t, *what in trace if what[1:] == ["child done"]) == 3


@BOTH_CORES
def test_kill_during_timed_wait_drops_the_stale_wake(core):
    sim = core()
    log = []
    res = Resource(sim, name="r")

    def victim():
        try:
            yield 10.0
        except ProcessKilled:
            if not res.acquire_now():
                yield res
            log.append((sim.now, "victim cleaned up"))
            res.release()

    def killer(target):
        yield 1.0
        target.kill()
        log.append((sim.now, "killer carried on"))

    proc = sim.process(victim())
    sim.process(killer(proc))
    sim.run()
    assert log == [(1.0, "killer carried on"), (1.0, "victim cleaned up")]
    assert proc.processed and proc.ok
    # Two starts, the killer's wake, the victim's grant, two process
    # completions — and the victim's stale t=10 wake, dropped but
    # still dispatched (which is why the clock ends there).
    assert sim.events_processed == 7
    assert sim.now == 10.0


@BOTH_CORES
def test_negative_delay_is_thrown_into_the_generator(core):
    sim = core()
    caught = []

    def careful():
        try:
            yield -1.0
        except SimulationError as err:
            caught.append(str(err))
        yield 2
        return "recovered"

    def careless():
        yield -0.5

    assert sim.run_process(careful(), name="careful") == "recovered"
    assert sim.now == 2.0
    assert len(caught) == 1 and "'careful'" in caught[0]
    proc = sim.process(careless(), name="careless")
    sim.run()
    assert isinstance(proc.exception, SimulationError)
    assert "'careless'" in str(proc.exception)


@BOTH_CORES
def test_a_nan_delay_is_refused_at_every_scheduling_door(core):
    # ``delay < 0`` is False for NaN, so a NaN timer used to dispatch
    # with ``now = nan`` and the clock then resumed behind it.
    sim = core()
    nan = float("nan")
    for schedule in (lambda: sim.timeout(nan),
                     lambda: sim.event().succeed(delay=nan),
                     lambda: sim.event().fail(ValueError(), delay=nan),
                     lambda: sim._schedule(sim.event(), nan)):
        with pytest.raises(SimulationError, match="delay nan"):
            schedule()
    assert sim.pending == 0
    ev = sim.event()
    with pytest.raises(SimulationError, match="delay -1"):
        ev.succeed(delay=-1)
    assert not ev.triggered     # refused, not half-scheduled
    ev.succeed("late", delay=1.0)

    def waiter():
        yield nan

    proc = sim.process(waiter(), name="nan-waiter")
    sim.timeout(2.0)
    sim.run()
    assert "delay nan" in str(proc.exception)
    assert sim.now == 2.0 and ev.value == "late"


@BOTH_CORES
@pytest.mark.parametrize("bad", [True, None, "x"], ids=repr)
def test_only_events_and_numbers_may_be_yielded(core, bad):
    sim = core()

    def worker():
        yield bad

    proc = sim.process(worker())
    with pytest.raises(SimulationError, match="yield an Event or a delay"):
        sim.run()
    assert proc.is_alive


@BOTH_CORES
def test_run_before_stops_at_a_pending_wake(core):
    sim = core()
    woke = []

    def sleeper(d):
        yield d
        woke.append(sim.now)

    for d in (1.0, 2, 3.0, 4.0):
        sim.process(sleeper(d))
    # Four starts, the wakes at 1 and 2, and their two completions.
    assert sim.run_before(3.0) == 8
    assert woke == [1.0, 2.0] and sim.now == 2.0
    sim.run()
    assert woke == [1.0, 2.0, 3.0, 4.0]


@BOTH_CORES
def test_a_nan_bound_is_refused_not_drained(core):
    # Every comparison with NaN is False, so a NaN ``until`` or bound
    # used to run the whole queue: a process waiting 5.0 twice ended at
    # now == 10.0.
    sim = core()

    def waiter():
        yield 5.0
        yield 5.0

    sim.process(waiter())
    nan = float("nan")
    with pytest.raises(SimulationError, match="until must not be NaN"):
        sim.run(until=nan)
    with pytest.raises(SimulationError, match="bound must not be NaN"):
        sim.run_before(nan)
    assert sim.now == 0.0 and sim.pending == 1
    sim.run(until=7.0)
    assert sim.now == 7.0 and sim.pending == 1
    sim.run()
    assert sim.now == 10.0
