"""The reference event core the fast :class:`Simulator` is refereed by.

Immutable ``(t, seq, event)`` heap entries, no zero-delay lane, and a
fresh ``Timeout`` per wake — a ``yield delay``, a resource grant and a
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
from repro.sim.event import Timeout
from repro.sim.process import Process, _Wake


class ReferenceSimulator(Simulator):
    __slots__ = ()

    def _wake(self, token, delay):
        Timeout(self, delay).add_callback(token.proc._resume)

    def _schedule(self, event, delay):
        if not delay >= 0:
            raise SimulationError(f"cannot schedule at delay {delay!r}: "
                                  "a delay must be >= 0")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def step(self):
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        self.now, _seq, event = heapq.heappop(self._heap)
        self._nevents += 1
        event._process()

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
    plus ``_Wake`` whenever a wake token is dispatched as an event.  On
    the fast core wakes do not pass through ``_resume``: ``run_before``
    resumes the process itself, and only ``step()`` goes through
    ``_Wake._process``."""
    woke = set()
    resume = Process._resume
    wake = _Wake._process

    def spy(self, ev):
        woke.add(ev.__class__)
        resume(self, ev)

    def wake_spy(self):
        woke.add(_Wake)
        wake(self)

    monkeypatch.setattr(Process, "_resume", spy)
    monkeypatch.setattr(_Wake, "_process", wake_spy)
    return woke


def assert_shares_no_fast_path(sim, woke):
    """``sim`` never touched the lane and no ``_Wake`` token reached its
    loop, yet something woke a process — so a wait point added to the
    fast core without a ``_wake``/``_schedule`` the reference overrides
    fails here instead of silently sharing the fast path.  True of the
    reference core after any run; false of the fast one."""
    assert not sim._lane
    assert woke and _Wake not in woke
