"""Processes: generator coroutines driven by the event loop.

A process generator ``yield``\\ s events and is resumed with the event's
value once it fires::

    def worker(sim, nic):
        yield nic.acquire()          # wait for the NIC
        yield sim.timeout(2.5)       # occupy it for 2.5 us
        nic.release()
        return "done"

A :class:`Process` is itself an :class:`~repro.sim.event.Event` that
succeeds with the generator's return value, so processes can wait on
each other (fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.event import Event, _PooledEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


class Process(Event):
    """A running generator; completes when the generator returns."""

    __slots__ = ("_gen", "_send", "_resume_cb")

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
        # One bound method for every wakeup instead of a fresh bound
        # object per yielded event.
        self._resume_cb = self._resume
        # First step happens via a zero-delay event so that spawning is
        # itself an observable point in time and spawn order == run order.
        sim.sleep(0.0).add_callback(self._resume_cb)

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
            self._step(None, ProcessKilled(reason))
        finally:
            sim._fanout = outer

    # -- driving ------------------------------------------------------

    def _resume(self, ev: Event) -> None:
        # Runs once per dispatched event — this *is* the hot path, so
        # the success case of _step is inlined here: property reads
        # become raw slot checks and add_callback becomes a direct
        # list append on the target.
        if self._status:
            # The process died (e.g. kill()) while this event was in
            # flight; drop the stale wakeup.
            return
        exc = ev._exc
        if exc is not None:
            self._step(None, exc)
            return
        try:
            target = self._send(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as pk:
            self.fail(pk)
            return
        except BaseException as err:
            # Attach context so deadlocks/crashes are debuggable at scale.
            err.args = (*err.args, f"[in sim process {self.name!r} at "
                                   f"t={self.sim.now:.3f}]")
            self.fail(err)
            return
        try:
            status = target._status
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Events (use 'yield from' for sub-generators)"
            ) from None
        if status == 2:  # PROCESSED: late subscriber, resume immediately
            self._resume(target)
        elif target.__class__ is _PooledEvent and target._cb is None:
            target._cb = self._resume_cb
        else:
            target._callbacks.append(self._resume_cb)

    def _step(self, value: Any, exc: BaseException | None) -> None:
        """Cold-path drive: failure delivery and kill()."""
        try:
            if exc is None:
                target = self._gen.send(value)
            else:
                target = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as pk:
            self.fail(pk)
            return
        except BaseException as err:
            err.args = (*err.args, f"[in sim process {self.name!r} at "
                                   f"t={self.sim.now:.3f}]")
            self.fail(err)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Events (use 'yield from' for sub-generators)"
            )
        if target._status == 2:
            self._resume(target)
        else:
            target._callbacks.append(self._resume_cb)
