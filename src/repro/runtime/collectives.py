"""Collective operations: barrier (and the broadcast used by
collective allocation).

The paper's stressmarks lean on ``upc_barrier`` both for correctness
and, in Update, as the idle state of non-communicating threads
("the other threads idle in a barrier", section 4.4) — which matters
to the model because a thread blocked in a barrier is *inside the
runtime* and therefore polls the network on GM.

Cost model: a dissemination barrier over the nodes —
``2 * ceil(log2(nnodes))`` message stages of typical wire latency,
plus a per-thread software entry/exit cost.  Within a node threads
synchronize through shared memory at memcpy-like cost.
"""

from __future__ import annotations

import math
from typing import Dict, TYPE_CHECKING

from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.params import MachineParams, TransportParams
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import UPCThread
    from repro.sim.shard import ShardContext


def dissemination_cost_us(machine: "MachineParams", nnodes: int,
                          params: "TransportParams") -> float:
    """Inter-node phase cost of a dissemination barrier.

    Single source of truth for *both* cores: :class:`BarrierManager`
    (pooled runtime) and :class:`ShardBarrier` (sharded PDES programs)
    charge this same formula, which is what makes barrier release
    times comparable between a pooled run and its sharded replay.
    Machines with a dedicated combine/broadcast network (BG/L's tree)
    complete in near-constant time instead.
    """
    if nnodes <= 1:
        return 0.5  # pure shared-memory barrier
    if machine.collective_network_barrier_us > 0:
        return machine.collective_network_barrier_us
    stages = max(1, math.ceil(math.log2(nnodes)))
    hop = machine.wire_base_us + 3 * machine.wire_per_hop_us
    return 2 * stages * (hop + params.o_send_us + params.o_recv_us)


class BarrierManager:
    """Counts arrivals per barrier generation; releases everyone."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self._generation = 0
        self._arrived = 0
        self._release: Event = Event(runtime.sim, name="barrier-gen0")
        #: thread id -> release event of the generation it notified
        #: into (split-phase barrier state).
        self._notified: Dict[int, Event] = {}

    @property
    def generation(self) -> int:
        return self._generation

    def network_cost_us(self) -> float:
        """Dissemination-phase cost across nodes (shared formula —
        see :func:`dissemination_cost_us`)."""
        return dissemination_cost_us(self.rt.cluster.machine,
                                     self.rt.cluster.nnodes,
                                     self.rt.cluster.params)

    def _arrive(self, thread: "UPCThread") -> Event:
        """Register one arrival; returns this generation's release
        event (triggering it if the arrival was the last)."""
        rt = self.rt
        self._arrived += 1
        release = self._release
        if self._arrived == rt.nthreads:
            # Last arrival triggers the network phase and the release.
            self._arrived = 0
            self._generation += 1
            rt.metrics.barriers += 1
            self._release = Event(rt.sim,
                                  name=f"barrier-gen{self._generation}")
            release.succeed(value=self._generation,
                            delay=self.network_cost_us())
        return release

    def wait(self, thread: "UPCThread"):
        """Generator: block until every UPC thread arrived
        (``upc_barrier`` = notify + wait back to back)."""
        yield self.rt.cluster.params.o_sw_us  # entry
        release = self._arrive(thread)
        yield release
        # Exit overhead (wakeup, flag reset).
        yield 0.2

    # -- split-phase barrier (upc_notify / upc_wait) --------------------

    def notify(self, thread: "UPCThread"):
        """``upc_notify``: register arrival and return immediately.
        The thread may compute before calling :meth:`phase_wait`,
        overlapping its work with the barrier's network phase."""
        yield self.rt.cluster.params.o_sw_us
        if thread.id in self._notified:
            raise RuntimeError(
                f"thread {thread.id}: upc_notify twice without upc_wait")
        self._notified[thread.id] = self._arrive(thread)

    def phase_wait(self, thread: "UPCThread"):
        """``upc_wait``: block until the generation this thread
        notified into has released."""
        release = self._notified.pop(thread.id, None)
        if release is None:
            raise RuntimeError(
                f"thread {thread.id}: upc_wait without upc_notify")
        yield release
        yield 0.2


class ShardBarrier:
    """``upc_barrier`` semantics for *sharded* programs.

    Participants may live on any shard; arrival counting and the
    release time are resolved by the sync coordinator
    (:class:`repro.sim.sync.SyncCoordinator`), which releases at
    ``max(arrival times) + cost`` — the same counter-barrier semantics
    :class:`BarrierManager` implements inside one pooled core, with
    the cost produced by the same :func:`dissemination_cost_us`.
    ``generation`` disambiguates repeated barriers (coordinator names
    are one-shot); every participant of a generation must use the same
    number, exactly as every UPC thread passes the same barrier phase.
    """

    def __init__(self, ctx: "ShardContext", expected: int,
                 cost_us: float, entry_us: float = 0.0,
                 exit_us: float = 0.2, name: str = "barrier") -> None:
        if expected < 1:
            raise ValueError(f"expected must be >= 1, got {expected}")
        self.ctx = ctx
        self.expected = expected
        self.cost_us = cost_us
        self.entry_us = entry_us
        self.exit_us = exit_us
        self.name = name

    def wait(self, generation: int = 0, count: int = 1):
        """Generator: arrive and block until the global release."""
        if self.entry_us:
            yield self.entry_us
        gate = self.ctx.barrier_arrive(
            f"{self.name}@{generation}", self.expected,
            self.cost_us, count=count)
        yield gate
        if self.exit_us:
            yield self.exit_us


class Reducer:
    """Value collectives: ``upc_all_reduce``-style combine + broadcast.

    All threads contribute a value; everyone receives the reduction.
    Cost: one barrier (the combine tree piggybacks on the barrier's
    dissemination stages) plus one broadcast-stage latency.
    """

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self._slots: Dict[int, list] = {}
        self._results: Dict[int, object] = {}

    def all_reduce(self, thread: "UPCThread", tag: int, value, op=None):
        """Generator: contribute ``value``; returns ``op``-fold of all
        contributions (default: sum).

        The fold runs in **thread-id order**, not arrival order, so
        the result is identical whatever the timing (cached vs
        uncached runs must agree even for non-commutative ``op``).
        """
        rt = self.rt
        self._slots.setdefault(tag, []).append((thread.id, value))
        yield from rt.barrier_mgr.wait(thread)
        if tag not in self._results:
            values = [v for _, v in sorted(self._slots.pop(tag))]
            if op is None:
                acc = sum(values[1:], values[0])
            else:
                acc = values[0]
                for v in values[1:]:
                    acc = op(acc, v)
            self._results[tag] = acc
        # Propagation latency of the result tree.
        nnodes = rt.cluster.nnodes
        if nnodes > 1:
            stages = max(1, math.ceil(math.log2(nnodes)))
            machine = rt.cluster.machine
            yield stages * (machine.wire_base_us
                            + 3 * machine.wire_per_hop_us)
        result = self._results[tag]
        # The last thread out cleans the slot for tag reuse safety.
        return result


class Broadcaster:
    """Small-value broadcast used by collective allocation: thread 0's
    value becomes visible to everyone after a tree of control
    messages.  Modelled as one dissemination phase."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self._slots: Dict[int, object] = {}

    def bcast(self, thread: "UPCThread", tag: int, value=None):
        """Generator: thread 0 contributes ``value``; all threads
        return it.  Must be called collectively (all threads, same tag
        sequence) — like any UPC collective.

        The internal barrier polls the network (a thread blocked in a
        collective is inside the runtime), so in-flight AM handlers
        keep being serviced while everyone synchronizes.
        """
        rt = self.rt
        if thread.id == 0:
            self._slots[tag] = value
        # One barrier guarantees the slot is written, then a tree
        # latency charges the propagation.
        thread.node.progress.enter_runtime()
        try:
            yield from rt.barrier_mgr.wait(thread)
        finally:
            thread.node.progress.leave_runtime()
        nnodes = rt.cluster.nnodes
        if nnodes > 1:
            stages = max(1, math.ceil(math.log2(nnodes)))
            machine = rt.cluster.machine
            yield stages * (machine.wire_base_us
                            + 3 * machine.wire_per_hop_us)
        result = self._slots[tag]
        return result
