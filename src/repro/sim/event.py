"""Events: one-shot synchronization points on the virtual clock.

An :class:`Event` has three states:

``PENDING``
    created, nobody has decided its outcome yet;
``SCHEDULED``
    outcome decided (:meth:`Event.succeed` / :meth:`Event.fail`), queued
    on the simulator heap, callbacks not yet run;
``PROCESSED``
    popped off the heap; callbacks have run.

Processes wait on events by ``yield``-ing them (a plain timed wait
yields a number instead, and a resource or polling-engine wait yields
the :class:`~repro.sim.resource.Resource` or engine; neither involves
an event); arbitrary callbacks can also be attached with
:meth:`Event.add_callback` (the kernel itself uses this to resume
processes waiting on an event).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator

PENDING = 0
SCHEDULED = 1
PROCESSED = 2


class Event:
    """A one-shot occurrence at a point in virtual time."""

    __slots__ = ("sim", "_status", "_value", "_exc", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._status = PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["Event"], None]] = []
        self.name = name

    # -- inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the outcome has been decided (scheduled or done)."""
        return self._status != PENDING

    @property
    def processed(self) -> bool:
        return self._status == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid once triggered)."""
        return self._exc is None

    @property
    def value(self) -> Any:
        """The success value. Raises the failure exception if failed."""
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- outcome ------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Decide success; callbacks run after ``delay`` virtual time."""
        if self._status != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self.sim._schedule(self, delay)     # a refused delay leaves it pending
        self._value = value
        self._status = SCHEDULED
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Decide failure; waiting processes get ``exc`` thrown in."""
        if self._status != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self.sim._schedule(self, delay)
        self._exc = exc
        self._status = SCHEDULED
        return self

    # -- callbacks ----------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event is processed.

        If the event was already processed the callback runs
        immediately (same clock value), preserving at-least-once
        semantics for late subscribers.
        """
        if self._status == PROCESSED:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _join(self, proc) -> None:
        """``proc`` yielded this event: resume it when it fires (at
        once if it already has)."""
        if self._status == PROCESSED:
            proc._resume(self)
        else:
            self._callbacks.append(proc._resume)

    def _process(self) -> None:
        """Called by the simulator when popped from the heap."""
        self._status = PROCESSED
        callbacks = self._callbacks
        if callbacks:
            # Iterate then clear in place: a callback registered while
            # the event is PROCESSED runs immediately (add_callback),
            # so the list cannot grow under us, and reusing it avoids
            # one list allocation per dispatched event.
            # No subscriber of a fan-out runs at a quiescent point
            # (Simulator.quiescent): the next one follows it.
            sim = self.sim
            sim._fanout = len(callbacks) > 1
            for fn in callbacks:
                fn(self)
            sim._fanout = False
            callbacks.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = {PENDING: "pending", SCHEDULED: "scheduled", PROCESSED: "done"}
        label = self.name or type(self).__name__
        return f"<{label} {state[self._status]} at t={self.sim.now:.3f}>"


class AllOf(Event):
    """Succeeds when *all* child events have succeeded.

    Value is the list of child values in construction order.  Fails as
    soon as any child fails.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Sequence[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])
