"""The reference event core the fast :class:`Simulator` is refereed by.

Immutable ``(t, seq, event)`` heap entries, no zero-delay lane, and a
fresh event per wake — a ``yield delay``, a resource grant and a
polling engine's tick included, all of which the fast core queues as
the process's ``_Wake`` token and resumes in its dispatch loop.  It
overrides every place the fast core takes the lane or queues a token,
and nothing else, so any test run on both cores compares two
schedulers that share only the clock and the sequence counter.
"""

import heapq

import pytest

from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.sim.event import Event
from repro.sim.process import Process, _Wake


class ReferenceSimulator(Simulator):
    __slots__ = ()

    def _wake(self, token, delay):
        Event(self).succeed(None, delay).add_callback(token.proc._resume)

    def _schedule(self, event, delay):
        if not delay >= 0:
            raise SimulationError(f"cannot schedule at delay {delay!r}: "
                                  "a delay must be >= 0")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def run_before(self, bound):
        if bound != bound:
            raise SimulationError(
                f"run_before: bound must not be NaN, got {bound}")
        self._fanout = False
        heap = self._heap
        n = 0
        try:
            while heap and heap[0][0] < bound:
                self.now, _seq, event = heapq.heappop(heap)
                n += 1
                event._process()
        finally:
            self._nevents += n
        return n


#: Parametrises a test over both cores; the parameter is the class.
BOTH_CORES = pytest.mark.parametrize(
    "core", [Simulator, ReferenceSimulator], ids=["pooled", "legacy"])


def spy_on_wait_points(monkeypatch):
    """The set of classes of every event that resumes a process from
    here on (every wait point a generator yielded and was woken by),
    plus ``_Wake`` whenever the fast core queues a wake token.  On the
    fast core wakes do not pass through ``_resume``: ``run_before``
    resumes the process itself; the reference core overrides
    ``_wake``, so only the fast one's is spied on."""
    woke = set()
    resume = Process._resume
    wake = Simulator._wake

    def spy(self, ev):
        woke.add(ev.__class__)
        resume(self, ev)

    def wake_spy(self, token, delay):
        woke.add(_Wake)
        wake(self, token, delay)

    monkeypatch.setattr(Process, "_resume", spy)
    monkeypatch.setattr(Simulator, "_wake", wake_spy)
    return woke


def assert_shares_no_fast_path(sim, woke):
    """``sim`` never touched the lane and queued no ``_Wake`` token, yet
    something woke a process — so a wait point added to the
    fast core without a ``_wake``/``_schedule`` the reference overrides
    fails here instead of silently sharing the fast path.  True of the
    reference core after any run; false of the fast one."""
    assert not sim._lane
    assert woke and _Wake not in woke
