"""Progress engines: *when* does the target CPU service an AM handler?

This is the paper's central GM-vs-LAPI behavioural asymmetry:

* **GM / polling** (section 4.6): "the Myrinet/GM transport does not
  overlap communication and computation.  While a CPU is busy with the
  local portion of its array the network does not make progress, and
  other CPUs requesting data are forced into long waits."  A handler
  runs only once some thread on the node re-enters the runtime.

* **LAPI / interrupt** (section 4.7): "LAPI allows overlap of
  computation and communication, therefore wait times ... are not
  excessive even without address cache operation."  Handlers run after
  a short interrupt latency regardless of what the compute threads do.

RDMA operations never touch a progress engine — that is precisely why
the remote address cache helps.
"""

from __future__ import annotations

from typing import List

from repro.network.node import Node
from repro.network.params import INTERRUPT, POLLING, TransportParams
from repro.obs.events import (
    COMP_QUEUE,
    PHASE,
    QUEUE_ENTER,
    QUEUE_LEAVE,
    EventLog,
)
from repro.sim.process import _Wake
from repro.sim.simulator import Simulator


class ProgressEngine:
    """Base: grants service opportunities to incoming AM handlers."""

    def __init__(self, sim: Simulator, node: Node,
                 params: TransportParams) -> None:
        self.sim = sim
        self.node = node
        self.params = params
        #: Handlers serviced so far.
        self.serviced = 0
        #: Peak number of handlers queued waiting for a poller (always
        #: 0 for interrupt-driven engines, which never queue).
        self.max_backlog = 0
        #: Flight recorder (injected by the Runtime; stays off for
        #: bare-cluster uses).
        self.events = EventLog(enabled=False)
        #: Fault injector (installed by the Runtime alongside the
        #: transport's); models slow/wedged targets as extra dispatch
        #: latency.  None == healthy node, zero extra yields.
        self.faults = None
        #: Run metrics (injected by the Runtime); receives the global
        #: ``max_backlog`` peak across nodes.
        self.metrics = None
        #: Counter sampler (installed by ``CounterSampler.start``);
        #: notified on every backlog transition so queue depth is not
        #: under-reported between poll ticks.
        self.sampler = None

    def _stall(self, op_id: int):
        """Injected target-handler slowdown, charged before dispatch."""
        extra = self.faults.handler_stall(self.node.id, op_id=op_id)
        if extra > 0.0:
            yield extra

    # -- thread-side hooks (only meaningful for polling) ----------------

    def enter_runtime(self) -> None:
        """A local UPC thread entered the runtime (it now polls)."""

    def leave_runtime(self) -> None:
        """A local UPC thread left the runtime (stops polling)."""

    def poll(self) -> None:
        """An explicit progress tick from a local thread."""

    # -- handler-side ----------------------------------------------------

    def service(self, op_id: int = -1):
        """Generator: wait until a handler may start executing.

        ``op_id`` ties the wait to the remote operation being serviced
        in the flight recorder (queue_enter/queue_leave plus a
        ``queue`` latency-breakdown phase when the wait was non-zero).
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def _record_queue(self, t0: float, op_id: int) -> None:
        """Emit queue events for one service() wait; the caller tests
        ``events.enabled`` first."""
        ev = self.events
        wait = self.sim.now - t0
        ev.emit(self.sim.now, QUEUE_LEAVE, op=op_id, node=self.node.id,
                wait=wait)
        if wait > 0.0 and op_id >= 0:
            ev.emit(self.sim.now, PHASE, op=op_id, node=self.node.id,
                    comp=COMP_QUEUE, dur=wait)


class PollingProgress(ProgressEngine):
    """GM-style: handlers run only while some thread polls the NIC.

    ``enter_runtime``/``leave_runtime`` bracket every blocking runtime
    call; while the count is positive, arriving handlers are dispatched
    after ``dispatch_us``.  Otherwise they queue until the next
    ``enter_runtime``/``poll`` tick — which in the Field stressmark can
    be a whole compute slice away.
    """

    def __init__(self, sim: Simulator, node: Node,
                 params: TransportParams) -> None:
        super().__init__(sim, node, params)
        self._pollers = 0
        # The _Wake tokens of handlers parked until the next tick.
        self._waiters: List[_Wake] = []

    @property
    def pollers(self) -> int:
        return self._pollers

    def enter_runtime(self) -> None:
        self._pollers += 1
        if self._waiters:
            self._wake_all()

    def leave_runtime(self) -> None:
        if self._pollers <= 0:
            raise RuntimeError(
                f"leave_runtime() without enter on node {self.node.id}"
            )
        self._pollers -= 1

    def poll(self) -> None:
        """A momentary progress tick (e.g. between compute slices)."""
        if self._waiters:
            self._wake_all()

    def _backlog_changed(self, depth: int) -> None:
        """One enqueue/dequeue transition: track the peak and give the
        counter sampler its between-ticks data point (§4.6 backlog
        under-reporting fix)."""
        if depth > self.max_backlog:
            self.max_backlog = depth
            metrics = self.metrics
            if metrics is not None and depth > metrics.max_backlog:
                metrics.max_backlog = depth
        sampler = self.sampler
        if sampler is not None:
            sampler.backlog_transition(self.node.id, depth)

    def _wake_all(self) -> None:
        """Resume every parked handler; callers skip it when none is."""
        waiters = self._waiters
        # _wake() only schedules — the handlers resume from the dispatch
        # loop, so nothing can append to the list while we iterate, and
        # clearing in place avoids a list allocation.
        wake = self.sim._wake
        for token in waiters:
            wake(token, 0.0)
        waiters.clear()
        self._backlog_changed(0)

    def _join(self, proc) -> None:
        """A handler yielded the engine: park it until the next tick."""
        self._waiters.append(proc._token)
        self._backlog_changed(len(self._waiters))

    def service(self, op_id: int = -1):
        t0 = self.sim.now
        log = self.events
        if log.enabled:
            log.emit(t0, QUEUE_ENTER, op=op_id, node=self.node.id,
                     pollers=self._pollers)
        if self._pollers == 0:
            yield self
        if self.faults is not None:
            yield from self._stall(op_id)
        yield self.params.dispatch_us
        self.serviced += 1
        if log.enabled:
            self._record_queue(t0, op_id)


class InterruptProgress(ProgressEngine):
    """LAPI-style: handlers run after an interrupt latency, always."""

    def service(self, op_id: int = -1):
        t0 = self.sim.now
        log = self.events
        if log.enabled:
            log.emit(t0, QUEUE_ENTER, op=op_id, node=self.node.id)
        if self.faults is not None:
            yield from self._stall(op_id)
        yield self.params.interrupt_us
        self.serviced += 1
        if log.enabled:
            self._record_queue(t0, op_id)


def make_progress(sim: Simulator, node: Node,
                  params: TransportParams) -> ProgressEngine:
    """Build the progress engine named by ``params.progress``."""
    if params.progress == POLLING:
        return PollingProgress(sim, node, params)
    if params.progress == INTERRUPT:
        return InterruptProgress(sim, node, params)
    raise ValueError(f"unknown progress kind {params.progress!r}")
