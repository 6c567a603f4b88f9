"""Contended resources: a FIFO server with integer capacity.

Used for NICs (capacity 1 per node — the root of the paper's "four
threads competing for the same network device" amplification effect,
section 4.6), handler CPUs, flow-control credits and shared locks.
A resource keeps only its scheduling state; how long a grant queued is
read off the flight recorder's ``queue`` phase.

A process waits for a slot by yielding the resource itself; the grant
resumes it through its ``_Wake`` token, the carrier a timed wait uses,
so a grant costs no event object.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, TYPE_CHECKING

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process, _Wake
    from repro.sim.simulator import Simulator


class Resource:
    """FIFO resource with ``capacity`` concurrent users.

    Usage from a process::

        yield res
        try:
            yield cost
        finally:
            res.release()
    """

    __slots__ = ("sim", "capacity", "name", "_users", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users = 0
        self._waiters: Deque["_Wake"] = deque()

    @property
    def in_use(self) -> int:
        return self._users

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- protocol -----------------------------------------------------

    def _join(self, proc: "Process") -> None:
        """``proc`` yielded this resource: grant a free slot with a
        zero-delay wake, or queue the process's token FIFO."""
        if self._users < self.capacity and not self._waiters:
            self._users += 1
            self.sim._wake(proc._token, 0.0)
        else:
            self._waiters.append(proc._token)

    def acquire_now(self) -> bool:
        """Take a slot without suspending, when that is exact; False
        means the caller must ``yield self``.

        A grant on a free resource still costs a zero-delay wake:
        suspend, dispatch, resume.  When the simulator is
        :meth:`~repro.sim.simulator.Simulator.quiescent` that wake
        would be the very next dispatch, so carrying on is the same
        schedule.  A free slot alone is *not* enough: at an instant
        where anything else is queued (the norm in symmetric workloads)
        the caller would run on ahead of code that was due first.
        """
        granted = (self._users < self.capacity and not self._waiters
                   and self.sim.quiescent())
        self._users += granted
        return granted

    def release(self) -> None:
        """Free one slot; grants the oldest waiter, FIFO."""
        if self._waiters:   # queued only while every slot is held
            # The slot passes straight to the oldest waiter.
            self.sim._wake(self._waiters.popleft(), 0.0)
            return
        if self._users <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._users -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Resource {self.name} {self._users}/{self.capacity} "
                f"queue={len(self._waiters)}>")
