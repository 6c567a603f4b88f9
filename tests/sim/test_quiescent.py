"""Exactness of the grant shortcut: ``if not res.acquire_now(): yield
res`` must produce the schedule of plain ``yield res`` — same wake
order, clock and wait statistics — with only the skipped grant wakes
missing from ``events_processed``.

Each hand-built scenario isolates one clause of
``Simulator.quiescent()`` and is run a third time with ``quiescent``
forced to True (a free slot alone deciding) to show that the
scenario really does tell the two apart.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import ProcessKilled, Simulator

from tests.sim.grant_log import GrantLog
from tests.sim.reference_core import BOTH_CORES, ReferenceSimulator


class Harness:
    """One simulator plus the bookkeeping every scenario compares."""

    def __init__(self, core, shortcut):
        self.sim = core()
        self.shortcut = shortcut
        self.log = []
        self.skipped = 0
        self.resources = []

    def resource(self, capacity=1):
        res = GrantLog(self.sim, capacity=capacity,
                       name=f"r{len(self.resources)}")
        self.resources.append(res)
        return res

    def acquire(self, res):
        if self.shortcut and res.acquire_now():
            self.skipped += 1
            return
        yield res

    def mark(self, who):
        self.log.append((self.sim.now, who))

    def outcome(self):
        """Everything but the event count must be equal."""
        stats = [(r.acquisitions, r.wait_total, r.wait_max)
                 for r in self.resources]
        return self.log, self.sim.now, stats


def compare(scenario, core, monkeypatch, sensitive=True):
    """Run ``scenario`` plain and with the shortcut; they must agree.
    With ``quiescent()`` forced to True they must not (``sensitive``)."""
    runs = {}
    for shortcut in (False, True):
        h = Harness(core, shortcut)
        scenario(h)
        h.sim.run()
        runs[shortcut] = h
    plain, short = runs[False], runs[True]
    assert short.outcome() == plain.outcome()
    assert (plain.sim.events_processed - short.sim.events_processed
            == short.skipped)
    if sensitive:
        monkeypatch.setattr(Simulator, "quiescent", lambda self: True)
        wrong = Harness(core, True)
        scenario(wrong)
        wrong.sim.run()
        assert wrong.skipped > 0
        assert wrong.outcome() != plain.outcome()
    return short


@BOTH_CORES
def test_same_instant_wakers_on_one_slot(core, monkeypatch):
    # a and b wake at t=1, a first.  a's grant must not let it run past
    # b's wake-up, which is already queued for this instant.
    def scenario(h):
        res = h.resource()

        def user(name):
            yield h.sim.timeout(1.0)
            h.mark(name + " woke")
            yield from h.acquire(res)
            h.mark(name + " holds")
            res.release()

        h.sim.process(user("a"))
        h.sim.process(user("b"))

    short = compare(scenario, core, monkeypatch)
    assert short.log == [(1.0, "a woke"), (1.0, "b woke"),
                         (1.0, "a holds"), (1.0, "b holds")]
    # a could not skip (b's wake-up was pending) and b had to queue.
    assert short.skipped == 0


@BOTH_CORES
@pytest.mark.parametrize("kind", ["event", "process"])
def test_fan_out_first_subscriber_acquires(core, kind, monkeypatch):
    # Barrier-style: one event — a gate, or a process both join — wakes
    # a and b; nothing else is queued, but b still runs at this instant
    # right after a yields.
    def scenario(h):
        sim = h.sim

        def opener():
            yield 1.0

        gate = sim.event() if kind == "event" else sim.process(opener())
        res = h.resource()

        def waiter(name):
            yield gate
            h.mark(name + " released")
            yield from h.acquire(res)
            h.mark(name + " holds")
            yield sim.timeout(2.0)
            res.release()

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        if kind == "event":
            gate.succeed(delay=1.0)

    short = compare(scenario, core, monkeypatch)
    assert short.log[:3] == [(1.0, "a released"), (1.0, "b released"),
                             (1.0, "a holds")]
    assert short.skipped == 0


@BOTH_CORES
def test_heap_entry_at_now_goes_first(core, monkeypatch):
    # No contention at all: b merely wakes at the instant a acquires.
    # Its heap entry carries the smaller sequence number.
    def scenario(h):
        res = h.resource()

        def a():
            yield h.sim.timeout(1.0)
            yield from h.acquire(res)
            h.mark("a holds")

        def b():
            yield h.sim.timeout(1.0)
            h.mark("b woke")

        h.sim.process(a())
        h.sim.process(b())

    short = compare(scenario, core, monkeypatch)
    assert short.log == [(1.0, "b woke"), (1.0, "a holds")]


@BOTH_CORES
def test_zero_delay_event_queued_ahead(core, monkeypatch):
    # a spawns a child (a zero-delay start event) and then acquires:
    # the child starts before a's grant.
    def scenario(h):
        res = h.resource()

        def child():
            h.mark("child started")
            yield h.sim.timeout(1.0)

        def a():
            yield h.sim.timeout(1.0)
            h.sim.process(child())
            yield from h.acquire(res)
            h.mark("a holds")

        h.sim.process(a())

    short = compare(scenario, core, monkeypatch)
    assert short.log == [(1.0, "child started"), (1.0, "a holds")]


@BOTH_CORES
def test_killed_process_does_not_overtake_its_killer(core, monkeypatch):
    # kill() drives the victim's cleanup from inside the killer, which
    # carries on afterwards: not a quiescent point either.
    def scenario(h):
        res = h.resource()

        def victim():
            try:
                yield h.sim.timeout(10.0)
            except ProcessKilled:
                yield from h.acquire(res)
                h.mark("victim cleaned up")
                res.release()

        def killer(target):
            yield h.sim.timeout(1.0)
            target.kill()
            h.mark("killer carried on")

        h.sim.process(killer(h.sim.process(victim())))

    # Forcing quiescent() does not defeat the guard kill() sets, so
    # there is no wrong variant to tell apart here.
    short = compare(scenario, core, monkeypatch, sensitive=False)
    assert short.log == [(1.0, "killer carried on"),
                         (1.0, "victim cleaned up")]
    assert short.skipped == 0


@BOTH_CORES
def test_lone_acquirer_skips_every_grant(core, monkeypatch):
    def scenario(h):
        res = h.resource()

        def solo():
            for _ in range(5):
                yield h.sim.timeout(1.0)
                yield from h.acquire(res)
                h.mark("holds")
                res.release()

        h.sim.process(solo())

    short = compare(scenario, core, monkeypatch, sensitive=False)
    assert short.skipped == 5


# -- property: random programs over integer delays ---------------------

_STEP = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 3)),
    st.tuples(st.just("use"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("spawn"), st.integers(0, 2)),
)
_PROGRAM = st.lists(st.lists(_STEP, min_size=1, max_size=8),
                    min_size=1, max_size=5)


def _play(h, program, capacities):
    sim = h.sim
    resources = [h.resource(c) for c in capacities]
    gates = [sim.event(), sim.event()]

    def helper(name, res):
        yield from h.acquire(res)
        h.mark(name)
        res.release()

    def proc(name, steps):
        for i, step in enumerate(steps):
            tag = f"{name}.{i}"
            if step[0] == "sleep":
                yield step[1]       # an int delay
            elif step[0] == "use":
                res = resources[step[1] % len(resources)]
                yield from h.acquire(res)
                h.mark(tag + " holds")
                if step[2]:
                    yield float(step[2])
                res.release()
            elif step[0] == "wait":
                yield gates[step[1]]
            elif step[0] == "fire":
                if not gates[step[1]].triggered:
                    gates[step[1]].succeed()
            else:
                sim.process(helper(tag + " child",
                                   resources[step[1] % len(resources)]))
            h.mark(tag)

    for p, steps in enumerate(program):
        sim.process(proc(f"p{p}", steps))


@settings(max_examples=150, deadline=None)
@given(_PROGRAM, st.lists(st.integers(1, 2), min_size=1, max_size=3))
def test_property_shortcut_is_invisible(program, capacities):
    # Integer delays make same-instant ties the norm, as they are in a
    # symmetric workload.
    for core in (Simulator, ReferenceSimulator):
        runs = {}
        for shortcut in (False, True):
            h = Harness(core, shortcut)
            _play(h, program, capacities)
            h.sim.run()
            runs[shortcut] = h
        plain, short = runs[False], runs[True]
        assert short.outcome() == plain.outcome()
        assert (plain.sim.events_processed - short.sim.events_processed
                == short.skipped)
