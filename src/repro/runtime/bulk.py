"""The pipelined bulk-transfer engine.

The serial ``memget``/``memput`` loops pay ``segments x RTT``: one
blocking round trip per affine block.  The paper's whole argument is
that one-sided transfers should run as deep as the injection pipeline
allows (cf. Brock et al.'s aggregation pipelines and Storm's coalescing
of small remote ops), so this engine turns a bulk span into a *plan*
and drives it with two independent optimizations:

1. **Per-destination coalescing** — the span is split at affinity
   boundaries (the same ``_segments`` arithmetic the serial path uses)
   and segments bound for the same node whose target-arena byte ranges
   are back-to-back are merged into a single wire message, up to
   ``bulk_max_coalesce_bytes`` per message.  A block-cyclic array's
   blocks interleave *globally* but sit densely in each node's arena,
   so even an alternating layout coalesces per destination.  A single
   segment is never split, whatever its size, so a one-segment span
   costs exactly one message — identical to the serial path.

2. **Bounded in-flight windows** — the planned transfers are issued as
   nonblocking simulator processes under a sliding window of
   ``bulk_max_inflight`` messages with completion-driven refill: when
   any in-flight message completes, the next one launches.  This is a
   true pipeline, not lock-step batching; with window 1 (and coalescing
   off) the engine degenerates to exactly the serial behaviour.

The engine only *schedules*; protocol selection (RDMA fast path vs. the
default AM protocol, per destination) stays inside
:class:`~repro.runtime.ops.OpEngine`, and the data plane is applied by
the same op-engine callbacks the scalar path uses — results are
bit-identical with the engine on or off, and relaxed-put tracking for
fence/barrier is untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.obs.events import (
    BULK_DRAIN,
    BULK_ISSUE,
    BULK_PLAN,
    OP_BEGIN,
    OP_END,
)
from repro.faults.reliability import ReliabilityError
from repro.sim.event import AllOf, AnyOf
from repro.runtime.shared_array import SharedArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import UPCThread

#: One affine segment: (span index, offset in span, start, count).
Segment = Tuple[int, int, int, int]


class _Message:
    """One planned wire message: arena-contiguous segments, one node."""

    __slots__ = ("node", "segments", "nbytes", "arena_end")

    def __init__(self, node: int, segment: Segment, nbytes: int,
                 arena_end: int) -> None:
        self.node = node
        self.segments: List[Segment] = [segment]
        self.nbytes = nbytes
        self.arena_end = arena_end


class _LocalItem:
    """An intra-node segment (local or shared-memory access): never on
    the wire, issued inline in plan order via the ordinary op engine."""

    __slots__ = ("segment",)

    def __init__(self, segment: Segment) -> None:
        self.segment = segment


class BulkEngine:
    """Plans and drives coalesced, windowed bulk transfers."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self.max_inflight = runtime.config.bulk_max_inflight
        self.max_coalesce_bytes = runtime.config.bulk_max_coalesce_bytes
        #: Gauge: wire messages currently in flight across all bulk
        #: operations (sampled by :mod:`repro.obs.sampler`).
        self.live_messages = 0

    def _span_begin(self, thread: "UPCThread", name: str,
                    nspans: int) -> int:
        log = self.rt.events
        if not log.enabled:
            return -1
        op_id = log.next_op_id()
        log.emit(self.rt.sim.now, OP_BEGIN, op=op_id, thread=thread.id,
                 node=thread.node.id, name=name, spans=nspans)
        return op_id

    def _plan_event(self, thread: "UPCThread", op_id: int,
                    items: List[object]) -> None:
        log = self.rt.events
        if not log.enabled:
            return
        n_msgs = sum(1 for it in items if isinstance(it, _Message))
        n_segs = sum(len(it.segments) for it in items
                     if isinstance(it, _Message))
        log.emit(self.rt.sim.now, BULK_PLAN, op=op_id, thread=thread.id,
                 node=thread.node.id, messages=n_msgs,
                 wire_segments=n_segs,
                 coalesced=n_segs - n_msgs,
                 local=len(items) - n_msgs)

    def _span_end(self, thread: "UPCThread", op_id: int,
                  nbytes: int) -> None:
        log = self.rt.events
        if log.enabled and op_id >= 0:
            now = self.rt.sim.now
            log.emit(now, BULK_DRAIN, op=op_id, thread=thread.id,
                     node=thread.node.id)
            log.emit(now, OP_END, op=op_id, thread=thread.id,
                     node=thread.node.id, proto="bulk", nbytes=nbytes)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan(self, thread: "UPCThread", array: SharedArray,
              spans: Sequence[Tuple[int, int]]) -> List[object]:
        """Split spans at affinity boundaries, then coalesce.

        Returns the issue order: a list of :class:`_LocalItem` and
        :class:`_Message` entries.  A message sits at the position of
        its *first* segment.  Open messages are keyed by where their
        target arena range *ends*, so a later segment merges into
        whichever message it continues, whatever interleaved in
        between.  That matters for block-cyclic layouts: a node's arena
        packs each thread's blocks contiguously per thread slot, so a
        global-order scan revisits several growing arena ranges in
        round-robin — one open message per slot region, all coalescing
        concurrently.
        """
        from repro.runtime.thread import UPCThread

        m = self.rt.metrics
        ctrl = self.rt.cluster.params.ctrl_bytes
        elem = array.elem_size
        cap = self.max_coalesce_bytes
        home = thread.node.id
        items: List[object] = []
        #: (node, arena end byte) -> still-open message for that range.
        open_msgs: Dict[Tuple[int, int], _Message] = {}
        for span_idx, (index, nelems) in enumerate(spans):
            offset = 0
            for start, count in UPCThread._segments(array, index, nelems):
                seg: Segment = (span_idx, offset, start, count)
                offset += count
                m.bulk_segments += 1
                _, node, arena_start = array.locate(start)
                if node == home:
                    items.append(_LocalItem(seg))
                    continue
                nbytes = count * elem
                msg = open_msgs.pop((node, arena_start), None)
                if msg is not None and msg.nbytes + nbytes <= cap:
                    msg.segments.append(seg)
                    msg.nbytes += nbytes
                    msg.arena_end += nbytes
                    open_msgs[(node, msg.arena_end)] = msg
                    m.bulk_coalesced_segments += 1
                    # Each merged segment avoids one request/reply
                    # control-message pair on the wire.
                    m.bulk_bytes_saved += 2 * ctrl
                else:
                    if msg is not None:
                        # Full message: leave it closed at its range.
                        open_msgs[(node, msg.arena_end)] = msg
                    msg = _Message(node, seg, nbytes, arena_start + nbytes)
                    open_msgs[(node, msg.arena_end)] = msg
                    items.append(msg)
                    m.bulk_messages += 1
        return items

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _drive(self, thread: "UPCThread", items: List[object],
               local_gen, msg_gen, window: Optional[int],
               op_id: int = -1):
        """Issue plan ``items`` under a sliding in-flight window with
        completion-driven refill.

        *Every* item — wire message or intra-node access — waits for a
        free window slot before issuing, so a window of 1 reproduces
        today's strictly serial issue order exactly.  Intra-node items
        then run inline (plain memory operations, not wire traffic);
        messages run as detached simulator processes.  Returns the
        message processes for completion/failure collection.
        """
        sim = self.rt.sim
        m = self.rt.metrics
        log = self.rt.events
        depth = max(1, self.max_inflight if window is None else window)
        inflight: List = []
        procs: List = []
        for item in items:
            while len(inflight) >= depth:
                yield AnyOf(sim, inflight)
                inflight = [p for p in inflight if not p.triggered]
            if isinstance(item, _LocalItem):
                yield from local_gen(item.segment)
                continue
            proc = sim.process(
                msg_gen(item), name=f"bulk[t{thread.id}->n{item.node}]")
            self.live_messages += 1
            proc.add_callback(self._message_done)
            inflight.append(proc)
            procs.append(proc)
            m.bulk_depth.add(len(inflight))
            if log.enabled:
                log.emit(sim.now, BULK_ISSUE, op=op_id,
                         thread=thread.id, node=thread.node.id,
                         dst=item.node, nbytes=item.nbytes,
                         segments=len(item.segments),
                         inflight=len(inflight))
        pending = [p for p in inflight if not p.triggered]
        if pending:
            yield AllOf(sim, pending)
        return procs

    def _message_done(self, _ev) -> None:
        self.live_messages -= 1

    @staticmethod
    def _reap(procs: List, what: str) -> None:
        """Re-raise any transfer failure.  Retry exhaustion inside one
        pipelined message surfaces with the message's identity attached
        (which destination, out of how many messages) — without it a
        failed bulk op reads like a bare transport error."""
        for proc in procs:
            if proc.triggered and not proc.ok and isinstance(
                    proc.exception, ReliabilityError):
                raise ReliabilityError(
                    f"{what}: {proc.name} failed after retries "
                    f"({len(procs)} messages in flight plan): "
                    f"{proc.exception}") from proc.exception
            _ = proc.value  # re-raise any non-reliability failure

    # -- GET ------------------------------------------------------------

    def get_spans(self, thread: "UPCThread", array: SharedArray,
                  spans: Sequence[Tuple[int, int]],
                  window: Optional[int] = None):
        """Fetch every ``(index, nelems)`` span.  Returns one NumPy
        array per input span, in input order."""
        rt = self.rt
        rt.metrics.bulk_transfers += 1
        op_id = self._span_begin(thread, "bulk_get", len(spans))
        items = self._plan(thread, array, spans)
        self._plan_event(thread, op_id, items)
        out = [np.empty(nelems, dtype=array.dtype) for _, nelems in spans]

        def scatter(seg: Segment, values) -> None:
            span_idx, offset, _, count = seg
            out[span_idx][offset:offset + count] = values

        def local_gen(seg: Segment):
            _, _, start, count = seg
            piece = yield from rt.ops.get(thread, array, start, count)
            scatter(seg, piece)

        def msg_gen(msg: _Message):
            segs = [(start, count) for _, _, start, count in msg.segments]
            pieces = yield from rt.ops.bulk_get(
                thread, array, msg.node, msg.arena_end - msg.nbytes,
                segs, msg.nbytes, parent_op=op_id)
            for seg, piece in zip(msg.segments, pieces):
                scatter(seg, piece)

        procs = yield from self._drive(thread, items, local_gen, msg_gen,
                                       window, op_id)
        self._reap(procs, "bulk get")
        self._span_end(thread, op_id,
                       sum(nelems for _, nelems in spans)
                       * array.elem_size)
        return out

    # -- PUT ------------------------------------------------------------

    def put_spans(self, thread: "UPCThread", array: SharedArray,
                  puts: Sequence[Tuple[int, np.ndarray]],
                  window: Optional[int] = None):
        """Write every ``(index, values)`` span.  Returns at *local*
        completion of every planned message (the UPC relaxed model);
        remote application is tracked for fence/barrier exactly as the
        scalar PUT path tracks it."""
        rt = self.rt
        rt.metrics.bulk_transfers += 1
        op_id = self._span_begin(thread, "bulk_put", len(puts))
        values = [np.asarray(v, dtype=array.dtype).ravel()
                  for _, v in puts]
        spans = [(index, len(vals))
                 for (index, _), vals in zip(puts, values)]
        items = self._plan(thread, array, spans)
        self._plan_event(thread, op_id, items)

        def seg_values(seg: Segment) -> np.ndarray:
            span_idx, offset, _, count = seg
            return values[span_idx][offset:offset + count]

        def local_gen(seg: Segment):
            _, _, start, count = seg
            yield from rt.ops.put(thread, array, start, seg_values(seg),
                                  count)

        def msg_gen(msg: _Message):
            pairs = [(seg[2], seg_values(seg)) for seg in msg.segments]
            yield from rt.ops.bulk_put(
                thread, array, msg.node, msg.arena_end - msg.nbytes,
                pairs, msg.nbytes, parent_op=op_id)

        procs = yield from self._drive(thread, items, local_gen, msg_gen,
                                       window, op_id)
        self._reap(procs, "bulk put")
        self._span_end(thread, op_id,
                       sum(len(v) for v in values) * array.elem_size)
        return None
