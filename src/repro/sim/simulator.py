"""The simulator core: virtual clock + event heap.

Times are floats in microseconds.  Events scheduled for the same time
are processed in schedule order (a monotonically increasing sequence
number breaks heap ties), which makes runs fully deterministic.

Heap entries are ``[time, seq, x]`` lists (C-speed lexicographic
comparison) and zero-delay entries bypass the heap entirely through a
FIFO *fast lane* (a deque).  ``x`` is an event, or a process's
``_Wake`` token: whatever resumes exactly one process — a timed wait
running out, a resource granting it a slot, a polling engine's tick —
carries no event at all, and the dispatch loop resumes the generator
itself, requeueing the same entry when it yields a delay again.

Dispatch order is still *exactly* the total order on ``(time, seq)``:
the fast lane only ever holds entries whose time equals ``now`` (a
zero delay cannot point into the future, and the lane drains before
the clock advances), so the next event is the lane head unless the
heap top carries the same timestamp with a smaller sequence number.
The plain core this one must agree with — immutable tuple entries, no
lane, a fresh ``Timeout`` per wake — is
``tests/sim/reference_core.py``; the determinism tests run both on
identical workloads and require bit-identical schedules.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, List, Optional

from repro.sim.errors import SimulationError
from repro.sim.event import Event, Timeout
from repro.sim.process import Process, _Detached, _Wake


class Simulator:
    """Owns the clock and the pending-event heap."""

    __slots__ = ("now", "_heap", "_seq", "_nevents", "_lane", "_fanout")

    def __init__(self) -> None:
        #: Current virtual time in microseconds.
        self.now: float = 0.0
        self._heap: List[Any] = []
        self._seq = 0
        #: Total number of events processed (exposed for perf metrics).
        self._nevents = 0
        # Zero-delay fast lane: entries scheduled with delay == 0 at the
        # current clock value, dispatched FIFO without touching the heap.
        self._lane: Any = deque()
        # True while an event with several subscribers is being
        # dispatched (and while kill() drives a victim): whoever
        # yields now is followed by more code at this same instant.
        self._fanout = False

    # -- factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """An event firing ``delay`` microseconds from now, which
        callers may store and read ``.value`` from after the run.  A
        process that only waits yields ``delay`` instead.
        """
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn a process around generator ``gen``; starts at ``now``."""
        return Process(self, gen, name=name)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Spawn a process nobody joins: its end schedules nothing."""
        return _Detached(self, gen, name=name)

    # -- scheduling ---------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if not delay >= 0:     # a NaN delay fails this test too
            raise SimulationError(f"cannot schedule at delay {delay!r}: "
                                  "a delay must be >= 0")
        self._seq += 1
        entry = [self.now + delay, self._seq, event]
        if delay == 0.0:
            self._lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    #: Queue a process's ``_Wake`` token ``delay`` from now (a ``yield
    #: delay``, a grant, a poll tick): the entry is an event's, only
    #: the carrier differs.  A separate name because the reference
    #: core overrides it.
    _wake = _schedule

    # -- execution ----------------------------------------------------

    @property
    def events_processed(self) -> int:
        return self._nevents

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events (heap + lane)."""
        return len(self._heap) + len(self._lane)

    def quiescent(self) -> bool:
        """True when a zero-delay event scheduled right now would be
        the very next dispatch, with nothing running in between.

        That needs three things: the lane is empty and the heap top is
        strictly later than ``now`` (anything already queued for this
        instant carries a smaller sequence number and would go first),
        and the event being dispatched has no further subscriber (one
        would run, at this instant, as soon as the current one
        yields).  A process that finds the simulator quiescent may
        therefore take an outcome it would otherwise wait a zero-delay
        event for — see :meth:`Resource.acquire_now` — and no other
        process can tell: every later sequence number drops by one,
        which reorders nothing.
        """
        heap = self._heap
        return not (self._fanout or self._lane
                    or (heap and heap[0][0] <= self.now))

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        if self._lane:
            # Lane entries always sit at ``now``; the heap can only be
            # at ``now`` or later, so the lane head's time is minimal.
            return self._lane[0][0]
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event: the minimum ``(t, seq)`` entry of
        lane and heap.  Lane entries are at ``now``, so a heap entry
        wins only when it shares the timestamp with a smaller seq."""
        lane, heap = self._lane, self._heap
        if lane and not (heap and heap[0][0] <= lane[0][0]
                         and heap[0][1] < lane[0][1]):
            entry = lane.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            raise SimulationError("step() on an empty event queue")
        self.now = entry[0]
        self._nevents += 1
        entry[2]._process()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed (a runaway guard for tests).

        When stopping at ``until`` the clock is advanced to exactly
        ``until`` even if no event sits there.  A NaN ``until`` is an
        error: it compares false with every time, so it would drain.
        """
        if until != until:
            raise SimulationError(f"run: until must not be NaN, got {until}")
        self._fanout = False    # a callback that raised may have left it set
        if until is None and max_events is None:
            self.run_before(float("inf"))
            return
        budget = max_events if max_events is not None else -1
        while self._heap or self._lane:
            t = self.peek()
            if until is not None and t > until:
                self.now = until
                return
            if budget == 0:
                raise SimulationError(
                    f"max_events exhausted: {self._nevents} events "
                    f"processed, next event pending at t={t:.3f}"
                )
            budget -= 1
            self.step()
        if until is not None and self.now < until:
            self.now = until

    def run_before(self, bound: float) -> int:
        """Process every event with ``t < bound`` (strict); return the
        number processed.

        This is the grain primitive of the sharded PDES core: a shard
        may only execute events strictly below its conservative
        horizon, because an event *at* the horizon could still be
        preempted by a message arriving exactly there.  Unlike
        :meth:`run`'s ``until`` handling the clock is **not** advanced
        to ``bound`` — it stays at the last processed event so the
        shard's report reflects real progress.  With ``bound=inf`` it
        is also :meth:`run`'s plain drain — the one hot loop: the
        lane-vs-heap merge and the wakes are inlined, and dispatch
        order is identical to repeated :meth:`step` calls.  A NaN
        ``bound`` is an error, checked here once, not per event.
        """
        if bound != bound:
            raise SimulationError(
                f"run_before: bound must not be NaN, got {bound}")
        self._fanout = False
        lane = self._lane
        heap = self._heap
        pop = heapq.heappop
        n = 0
        # Lane entries sit at ``now`` (see peek), and every event
        # processed below keeps ``now < bound``: one check suffices.
        if lane and lane[0][0] >= bound:
            return 0
        wake_cls = _Wake
        lane_popleft = lane.popleft
        lane_push = lane.append
        push = heapq.heappush
        try:
            while True:
                if lane:
                    entry = lane_popleft()
                    if heap:
                        top = heap[0]
                        if top[0] <= entry[0] and top[1] < entry[1]:
                            lane.appendleft(entry)
                            entry = pop(heap)
                elif heap:
                    if heap[0][0] >= bound:
                        return n
                    entry = pop(heap)
                else:
                    return n
                now = self.now = entry[0]
                n += 1
                ev = entry[2]
                if ev.__class__ is wake_cls:
                    # A wait ran out or a grant came: _Wake._process
                    # inlined.  A float delay >= 0 yielded again
                    # requeues this very entry, at the (t, seq) _wake
                    # would give it.  A dead process's wake is dropped.
                    proc = ev.proc
                    if not proc._status:
                        try:
                            delay = ev.send(None)
                        except BaseException as err:
                            proc._exit(err)
                        else:
                            if delay.__class__ is float and delay >= 0.0:
                                seq = self._seq = self._seq + 1
                                entry[0] = now + delay
                                entry[1] = seq
                                if delay == 0.0:
                                    lane_push(entry)
                                else:
                                    push(heap, entry)
                                continue
                            proc._wait(delay)
                else:
                    ev._process()
        finally:
            self._nevents += n

    def run_process(self, gen: Generator, name: str = "",
                    max_events: Optional[int] = None) -> Any:
        """Convenience: spawn ``gen``, run to completion, return value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if the queue drained while the process
        was still blocked (a deadlock in the model).
        """
        proc = self.process(gen, name=name)
        self.run(max_events=max_events)
        if not proc.triggered:
            raise SimulationError(
                f"deadlock: process {proc!r} never completed "
                f"(queue drained at t={self.now:.3f})"
            )
        return proc.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Simulator t={self.now:.3f} "
                f"pending={len(self._heap) + len(self._lane)}>")
