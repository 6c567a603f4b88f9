"""Contended resources and mailboxes.

:class:`Resource`
    A FIFO server with integer capacity.  Used for NICs (capacity 1 per
    node — the root of the paper's "four threads competing for the same
    network device" amplification effect, section 4.6), CPUs and DMA
    engines.  Tracks busy time and grant waits so experiments can report
    utilization and queueing.

:class:`Queue`
    An unbounded FIFO of items with blocking ``get``.  Used for
    AM-handler dispatch queues in the progress engines.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, TYPE_CHECKING

from repro.sim.errors import SimulationError
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


class Resource:
    """FIFO resource with ``capacity`` concurrent users.

    Usage from a process::

        yield res.acquire()
        try:
            yield cost
        finally:
            res.release()
    """

    __slots__ = ("sim", "capacity", "name", "_users", "_waiters",
                 "_busy_integral", "_last_change", "_created",
                 "acquisitions", "wait_total", "wait_max", "_acq_name")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._acq_name = "acquire:" + name
        self._users = 0
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._busy_integral = 0.0
        self._last_change = self._created = sim.now
        #: Grants so far, and the total and longest time they waited.
        self.acquisitions = 0
        self.wait_total = 0.0
        self.wait_max = 0.0

    # -- accounting ---------------------------------------------------

    def utilization(self) -> float:
        """Mean fraction of capacity in use since the resource was
        created."""
        now = self.sim.now
        span = now - self._created
        if span <= 0:
            return 0.0
        busy = self._busy_integral + self._users * (now - self._last_change)
        return busy / (span * self.capacity)

    @property
    def in_use(self) -> int:
        return self._users

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- protocol -----------------------------------------------------

    def acquire(self) -> Event:
        """Returns an event that fires when a slot is granted.

        The grant event comes from the simulator's free list: its only
        consumers (the acquiring process and the FIFO in
        :meth:`release`) drop their references once it fires, so
        recycling after dispatch is safe.
        """
        ev = self.sim.oneshot(self._acq_name)
        if self.try_acquire():
            ev.succeed()
        else:
            self._waiters.append((ev, self.sim.now))
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True if granted immediately."""
        if self._users < self.capacity and not self._waiters:
            now = self.sim.now
            self._busy_integral += self._users * (now - self._last_change)
            self._last_change = now
            self._users += 1
            self.acquisitions += 1
            return True
        return False

    def acquire_now(self) -> bool:
        """Take a slot without suspending, when that is exact; False
        means the caller must ``yield self.acquire()``.

        A grant on a free resource still costs a zero-delay event:
        suspend, dispatch, resume.  When the simulator is
        :meth:`~repro.sim.simulator.Simulator.quiescent` that event
        would be the very next dispatch, so carrying on is the same
        schedule.  A free slot alone is *not* enough: at an instant
        where anything else is queued (the norm in symmetric workloads)
        the caller would run on ahead of code that was due first.
        """
        return self.sim.quiescent() and self.try_acquire()

    def release(self) -> None:
        """Free one slot; grants the oldest waiter, FIFO."""
        if self._users <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        now = self.sim.now
        self._busy_integral += self._users * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # The slot passes straight to the oldest waiter.
            ev, enq_t = self._waiters.popleft()
            self.acquisitions += 1
            wait = now - enq_t
            self.wait_total += wait
            if wait > self.wait_max:
                self.wait_max = wait
            ev.succeed()
        else:
            self._users -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Resource {self.name} {self._users}/{self.capacity} "
                f"queue={len(self._waiters)}>")


class Queue:
    """Unbounded FIFO mailbox with blocking ``get``."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = "queue") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest blocked getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = self.sim.oneshot("get:" + self.name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Queue {self.name} items={len(self._items)} getters={len(self._getters)}>"
