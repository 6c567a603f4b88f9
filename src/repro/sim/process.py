"""Processes: generator coroutines driven by the event loop.

A process generator ``yield``\\ s what it waits for: a non-negative
number is a timed wait of that many microseconds, a
:class:`~repro.sim.resource.Resource` resumes it once it holds a slot,
an event resumes it with the event's value once it fires::

    def worker(sim, nic):
        yield nic                    # wait for the NIC
        yield 2.5                    # occupy it for 2.5 us
        nic.release()
        return "done"

Anything but a number must have a ``_join(proc)`` method, which
arranges for the process to be resumed.

A :class:`Process` is itself an :class:`~repro.sim.event.Event` that
succeeds with the generator's return value, so processes can wait on
each other (fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.event import PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


class _Wake:
    """What the heap carries instead of an event to resume one process:
    after a timed wait, a resource grant or a polling engine's tick.

    One per process, queued by ``Simulator._wake`` at the instant and
    with the sequence number an event would have drawn; the dispatch
    loop resumes ``proc`` through ``send`` itself, unless it exited.
    """

    __slots__ = ("proc", "send")
    _value = _exc = None        # all Process._resume reads off an event

    def __init__(self, proc: "Process") -> None:
        self.proc = proc
        self.send = proc._send

    def _process(self) -> None:
        # Simulator.run_before inlines this; step() comes here.
        self.proc._resume(self)


class Process(Event):
    """A running generator; completes when the generator returns."""

    __slots__ = ("_gen", "_send", "_token")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(gen).__name__}: {gen!r}."
                " Did you call the function instead of passing its generator?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # The bound send is the single hottest callable in the kernel
        # (once per dispatched event); bind it exactly once.
        self._send = gen.send
        self._token = _Wake(self)
        # The first step is a zero-delay wake so that spawning is itself
        # an observable point in time and spawn order == run order.
        sim._wake(self._token, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def kill(self, reason: str = "") -> None:
        """Throw :class:`ProcessKilled` into the generator."""
        if self.triggered:
            return
        # The killer keeps running once the victim's cleanup yields, so
        # the victim must not see a quiescent simulator.
        sim = self.sim
        outer, sim._fanout = sim._fanout, True
        try:
            self._throw(ProcessKilled(reason))
        finally:
            sim._fanout = outer

    # -- driving ------------------------------------------------------

    def _resume(self, ev: Event) -> None:
        """Callback of every event the process waits on."""
        if self._status:
            # The process died (e.g. kill()) while this event was in
            # flight; drop the stale wakeup.
            return
        exc = ev._exc
        if exc is not None:
            self._throw(exc)
            return
        try:
            target = self._send(ev._value)
        except BaseException as err:
            self._exit(err)
            return
        self._wait(target)

    def _throw(self, exc: BaseException) -> None:
        """Cold-path drive: failure delivery and kill()."""
        try:
            target = self._gen.throw(exc)
        except BaseException as err:
            self._exit(err)
            return
        self._wait(target)

    def _wait(self, target) -> None:
        """Suspend on what the generator yielded: a delay, or anything
        with a ``_join`` (an event, a resource, a polling engine)."""
        cls = target.__class__
        if cls is float or (isinstance(target, (int, float))
                            and cls is not bool):
            if target >= 0:
                self.sim._wake(self._token, target)
            else:
                self._throw(SimulationError(
                    f"process {self.name!r} yielded delay {target!r}: a "
                    "timed wait needs a delay >= 0"))
            return
        try:
            join = target._join
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield an Event or a delay (use 'yield from' for "
                "sub-generators)"
            ) from None
        join(self)

    def _exit(self, err: BaseException) -> None:
        """The generator stopped: it returned, was killed, or raised."""
        self._token = None      # it names us back: refcounting frees us
        if isinstance(err, StopIteration):
            self.succeed(err.value)
            return
        if isinstance(err, ProcessKilled):
            err.__traceback__ = None    # the killer's frames: a cycle
        else:
            # Attach context so deadlocks/crashes are debuggable at scale.
            err.args = (*err.args, f"[in sim process {self.name!r} at "
                                   f"t={self.sim.now:.3f}]")
        self.fail(err)


class _Detached(Process):
    """What :meth:`Simulator.spawn` runs: a process nobody waits for,
    whose end is recorded, not scheduled (it would run no callback)."""

    __slots__ = ()

    def succeed(self, value=None, delay: float = 0.0) -> None:
        self._status, self._value = PROCESSED, value

    def fail(self, exc: BaseException, delay: float = 0.0) -> None:
        self._status, self._exc = PROCESSED, exc
