"""The flight recorder: typed, timestamped, causally-linked events.

This module records *op-level* events, so one log answers both "how
long did thread 3 spend in ``get:am``?" (the time-in-state projection,
:mod:`repro.obs.states`) and "where did remote GET #4217 spend its
14 µs?" (:mod:`repro.obs.breakdown`).  Every protocol layer — op
engine, bulk engine, address cache, pinned table, transport, progress
engine — emits events tagged with a causal ``op_id`` allocated at
operation begin, so one remote GET becomes a reconstructable span tree
from the initiator through the wire to the target handler and back.

Cost discipline: recording must be free when off.  Every
instrumentation site guards with ``if log.enabled:`` (one attribute
load and branch — no argument evaluation, no allocation); a disabled
:class:`EventLog` therefore adds **zero** simulator events and zero
virtual time, and runs remain bit-identical with recording on or off
(events are pure observations; nothing yields).

Event taxonomy (see ``docs/OBSERVABILITY.md`` for the full contract):

=================  ======================================================
kind               meaning
=================  ======================================================
``op_begin/end``   one runtime operation (get/put/memget/bulk/barrier/
                   lock/compute); ``end`` carries the resolved protocol
``phase``          a measured latency component on the op's critical
                   path: ``comp`` in {queue, wire, handler, piggyback}
                   and ``dur`` µs (software overhead is the residual)
``cache_*``        address-cache lookup/seed/evict/invalidate
``pin/unpin``      pinned-address-table registration traffic
``am_*``           active-message request/reply send/receive
                   (``piggyback=True`` when the reply carried an address)
``rdma_*``         one-sided issue/complete
``queue_*``        AM handler waiting for service (progress engine)
``bulk_*``         bulk-engine plan/issue/drain
``counter``        sampled time-series point (:mod:`repro.obs.sampler`)
``fault_inject``   the fault plane fired (drop/duplicate/delay/stall/
                   pin-deny; see ``docs/FAULTS.md``)
``timeout``        initiator-side retransmit or RDMA-completion timer
                   expired
``retry``          a timed-out request is being retransmitted
                   (``attempt`` counts from 1, ``backoff_us`` the wait)
``degrade``        a fast path was abandoned: ``mode`` is
                   ``rdma_to_am`` (cache entry invalidated, op falls
                   back to AM) or ``unpinnable`` (object served over
                   AM forever)
=================  ======================================================
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

# -- event kinds -------------------------------------------------------

OP_BEGIN = "op_begin"
OP_END = "op_end"
PHASE = "phase"

CACHE_LOOKUP = "cache_lookup"
CACHE_SEED = "cache_seed"
CACHE_EVICT = "cache_evict"
CACHE_INVALIDATE = "cache_invalidate"

PIN = "pin"
UNPIN = "unpin"

AM_SEND = "am_send"
AM_RECV = "am_recv"
AM_REPLY_SEND = "am_reply_send"
AM_REPLY_RECV = "am_reply_recv"

RDMA_ISSUE = "rdma_issue"
RDMA_COMPLETE = "rdma_complete"

QUEUE_ENTER = "queue_enter"
QUEUE_LEAVE = "queue_leave"

HANDLER_BEGIN = "handler_begin"
HANDLER_END = "handler_end"

BULK_PLAN = "bulk_plan"
BULK_ISSUE = "bulk_issue"
BULK_DRAIN = "bulk_drain"

#: Service-layer op-span names (:mod:`repro.service`).  KV ops reuse
#: the generic ``op_begin``/``op_end`` kinds; the span's ``name`` attr
#: carries one of these so analyzers can attribute the underlying
#: memget/lock/AM traffic to the data-structure operation above it.
KV_GET = "kv_get"
KV_PUT = "kv_put"
KV_DEL = "kv_del"
KV_MGET = "kv_mget"

#: Sharded-PDES-core kinds (:mod:`repro.sim.shard`).  ``xshard_send``
#: and ``xshard_recv`` bracket one cross-shard message — the receive
#: carries the sender's ``(src, seq)`` pair, which is the join key
#: linking the two halves into one logical span across shard logs.
#: ``sync_round`` marks one conservative-sync grain (the barrier
#: window): its ``round`` attr is the coordinator's global round
#: number, ``stall`` flags grains that processed zero events — the
#: conservative-sync stalls the Chrome export makes visible.
XSHARD_SEND = "xshard_send"
XSHARD_RECV = "xshard_recv"
SYNC_ROUND = "sync_round"
BARRIER_ARRIVE = "barrier_arrive"
BARRIER_RELEASE = "barrier_release"

COUNTER = "counter"

FAULT_INJECT = "fault_inject"
TIMEOUT = "timeout"
RETRY = "retry"
DEGRADE = "degrade"
#: A repair policy acted on a link (tune/untune, disable/restore,
#: failover/failback) — attrs carry src/dst, action, mode, policy.
POLICY_ACTION = "policy_action"

#: Latency-breakdown components carried by ``phase`` events.  Software
#: overhead has no phase events: it is defined as the residual
#: ``end_to_end - (queue + wire + handler + piggyback)``, which is what
#: makes the decomposition sum exactly by construction.
COMP_QUEUE = "queue"
COMP_WIRE = "wire"
COMP_HANDLER = "handler"
COMP_PIGGYBACK = "piggyback"
COMP_SOFTWARE = "software"

COMPONENTS = (COMP_SOFTWARE, COMP_QUEUE, COMP_WIRE, COMP_HANDLER,
              COMP_PIGGYBACK)


class TraceEvent:
    """One recorded event.

    ``op`` is the causal operation id (``-1``: not tied to an op);
    ``thread`` the issuing UPC thread (``-1``: none — e.g. target-side
    events); ``node`` the node the event happened on (``-1``: global).
    ``attrs`` carries kind-specific detail (name, proto, nbytes, comp,
    dur, hit, ...), JSON-representable by contract.
    """

    __slots__ = ("t", "kind", "op", "thread", "node", "attrs")

    def __init__(self, t: float, kind: str, op: int = -1,
                 thread: int = -1, node: int = -1,
                 attrs: Optional[dict] = None) -> None:
        self.t = t
        self.kind = kind
        self.op = op
        self.thread = thread
        self.node = node
        self.attrs = attrs if attrs is not None else {}

    def key(self) -> Tuple:
        return (self.t, self.kind, self.op, self.thread, self.node,
                self.attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:  # attrs is a dict — identity hashing
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" {self.attrs}" if self.attrs else ""
        return (f"<{self.kind} t={self.t:.3f} op={self.op} "
                f"th={self.thread} n={self.node}{extra}>")


class EventLog:
    """Per-runtime sink for :class:`TraceEvent` records.

    ``max_events`` bounds memory (drop-newest: once the budget is hit,
    further events are discarded and counted in ``dropped_events`` —
    a truncated log is never silently read as complete).
    """

    __slots__ = ("events", "enabled", "max_events", "dropped_events",
                 "_next_op")

    def __init__(self, enabled: bool = True,
                 max_events: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.enabled = enabled
        self.max_events = max_events
        self.dropped_events = 0
        self._next_op = 0

    # -- recording -----------------------------------------------------

    def next_op_id(self) -> int:
        """Allocate a fresh causal operation id."""
        self._next_op += 1
        return self._next_op

    def emit(self, t: float, kind: str, op: int = -1, thread: int = -1,
             node: int = -1, **attrs) -> None:
        """Record one event.  Callers on hot paths must guard with
        ``if log.enabled:`` so a disabled log costs one branch."""
        if not self.enabled:
            return
        if (self.max_events is not None
                and len(self.events) >= self.max_events):
            self.dropped_events += 1
            return
        self.events.append(TraceEvent(t, kind, op, thread, node, attrs))

    def append(self, event: TraceEvent) -> None:
        """Append an already-built event (importers)."""
        if (self.max_events is not None
                and len(self.events) >= self.max_events):
            self.dropped_events += 1
            return
        self.events.append(event)

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def op_spans(self) -> Dict[int, Tuple[TraceEvent, TraceEvent]]:
        """Map op_id -> (op_begin, op_end) for completed operations,
        in completion order.  The one begin/end pairing every analyzer
        and exporter reads; an ``op_begin`` that never met its
        ``op_end`` (a truncated log) has no entry."""
        begins: Dict[int, TraceEvent] = {}
        spans: Dict[int, Tuple[TraceEvent, TraceEvent]] = {}
        for e in self.events:
            if e.op < 0:
                continue
            if e.kind == OP_BEGIN:
                begins[e.op] = e
            elif e.kind == OP_END:
                b = begins.pop(e.op, None)
                if b is not None:
                    spans[e.op] = (b, e)
        return spans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (f"<EventLog {len(self.events)} events ({state}, "
                f"{self.dropped_events} dropped)>")
