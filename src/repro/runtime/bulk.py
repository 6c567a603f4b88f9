"""The pipelined bulk-transfer engine.

A serial ``memget``/``memput`` pays ``segments x RTT``: one blocking
round trip per affine block.  The paper's argument is that one-sided
transfers should run as deep as the injection pipeline allows (cf.
Brock et al.'s aggregation pipelines and Storm's coalescing of small
remote ops), so this engine turns a bulk span into a *plan* and drives
it with two independent optimizations:

1. **Per-destination coalescing** — the span is split at affinity
   boundaries and segments bound for the same node whose target-arena
   byte ranges are back-to-back merge into one wire message, up to
   ``bulk_max_coalesce_bytes``.  A block-cyclic array's blocks
   interleave *globally* but sit densely in each node's arena, so even
   an alternating layout coalesces per destination.  A single segment
   is never split, so a one-segment span costs exactly one message.
   A span of whole blocks is planned per owner, in closed form: a
   remote owner's blocks are a *run* moved in one strided copy.

2. **Bounded in-flight windows** — the planned messages are issued as
   nonblocking simulator processes under a sliding window of
   ``bulk_max_inflight`` with completion-driven refill: a true
   pipeline, not lock-step batching.  A plan that is one message has no
   pipeline to run and is issued in the calling process, on the same
   schedule (:meth:`BulkEngine._transfer`).

Window 1 with coalescing off is the serial path: one blocking round
trip per block, in order.  The engine only *schedules*; protocol
selection (RDMA vs. the default AM protocol) stays inside
:class:`~repro.runtime.ops.OpEngine`, whose callbacks apply the data
plane: results are bit-identical whatever the window and the cap.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.obs.events import BULK_DRAIN, BULK_ISSUE, BULK_PLAN
from repro.faults.reliability import ReliabilityError
from repro.runtime.errors import LayoutError, UPCRuntimeError
from repro.runtime.shared_array import SharedArray
from repro.sim.event import PROCESSED
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import UPCThread

#: One affine segment: (span index, offset in span, start, count).  A bare
#: one in a plan is on the caller's node and is issued inline through the
#: scalar op engine, in order.
Segment = Tuple[int, int, int, int]


class _Message(NamedTuple):
    """One planned wire message: arena-contiguous segments, one node."""
    node: int
    segments: List[Segment]
    nbytes: int
    arena_lo: int


class _Run(NamedTuple):
    """A wire message of one span's blocks of one owner: back to back in
    its arena slot, ``nthreads * blocksize`` elements apart in the data
    plane and the span buffer alike.  ``segments`` counts them (no tuple
    per block); the first sits at ``at`` in the span, ``start`` in the
    array."""
    node: int
    segments: range
    nbytes: int
    arena_lo: int
    at: int
    start: int


class _Join:
    """What a pipelined drive waits on, on the schedule of a first-of
    event per window refill and an ``AllOf`` at the end: :meth:`park`
    watches message processes until ``need`` of them complete or one
    fails, and that completion queues the driver's ``_Wake`` token
    where the condition would have fired.  One that completed while
    the driver ran a local segment ends the wait at once (the first in
    list order, re-raised if it failed), as building it would have."""

    __slots__ = ("engine", "token", "watch", "need", "early", "failure")

    def __init__(self, engine: "BulkEngine") -> None:
        self.engine, self.token, self.watch = engine, None, []
        self.need, self.early, self.failure = 0, False, None

    def park(self, watch: List, need: int):
        """What the driver yields: this, or ``0.0``."""
        if self.early:          # something completed while unwatched
            self.early = False
            for msg in watch:
                if msg._status == PROCESSED:
                    self.failure = msg._exc
                    return 0.0
        self.watch, self.need = watch, need
        return self

    def _join(self, proc) -> None:
        self.token = proc._token

    def landed(self, msg) -> None:
        """Every message process's completion callback."""
        self.engine.live_messages -= 1
        if not self.need:
            self.early = True
        elif msg in self.watch:
            self.failure = msg._exc
            self.need = self.need - 1 if self.failure is None else 0
            if not self.need:
                msg.sim._wake(self.token, 0.0)


class _Flight(Process):
    """A pipelined wire message: the op engine's generator is the
    process, and its exit runs the transfer's ``end``, landing a GET's
    data or naming a message that ran out of retries."""

    __slots__ = ("msg", "number", "end")

    def _exit(self, err: BaseException) -> None:
        self.end(self.msg, self.number,
                 None if isinstance(err, StopIteration) else err)
        super()._exit(err)


class BulkEngine:
    """Plans and drives coalesced, windowed bulk transfers."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self.max_inflight = runtime.config.bulk_max_inflight
        self.max_coalesce_bytes = runtime.config.bulk_max_coalesce_bytes
        self._tpn = runtime.config.effective_threads_per_node
        #: Gauge: wire messages currently in flight across all bulk
        #: operations (sampled by :mod:`repro.obs.sampler`).
        self.live_messages = 0

    def _plan(self, thread: "UPCThread", array: SharedArray,
              spans: Sequence[Tuple[int, int]]):
        """The issue order of ``spans``, every one range-checked first:
        bare :data:`Segment` tuples and wire messages, a message where
        its *first* segment sat.  A single span in one block is located
        directly, one of whole blocks planned per owner (:meth:`_runs`);
        any other walks its segments, a remote one joining the open
        message whose arena range ends where it begins, up to the cap."""
        total = len(array.data)
        for index, nelems in spans:
            if nelems < 0:      # upc_memget(p, q, 0) is a no-op, not this
                raise UPCRuntimeError(f"nelems must be >= 0, got {nelems}")
            if nelems and not 0 <= index <= total - nelems:
                raise LayoutError(f"span [{index}, {index + nelems}) out "
                                  f"of range [0, {total})")
        home, elem = thread.node.id, array.elem_size
        bs = 0 if array.owner is not None else array.layout.blocksize
        if len(spans) == 1 and nelems > 0:  # the one span
            if not bs or index // bs == (index + nelems - 1) // bs:
                _, node, lo = array.locate(index)   # the usual span: O(1)
                m = self.rt.metrics
                m.bulk_segments += 1
                m.bulk_messages += node != home
                seg = (0, 0, index, nelems)
                return [seg if node == home
                        else _Message(node, [seg], nelems * elem, lo)]
            # Whole blocks, and no thread's last course ends where the
            # next thread's slot begins (two courses or more).
            if (index % bs == 0 == nelems % bs
                    and total > bs * array.layout.nthreads):
                return self._runs(home, array, index, nelems)
        cap = self.max_coalesce_bytes
        items: List = []
        ends = {}       # (node, arena byte) -> the open message ending there
        nsegs = nmsgs = merged = 0
        for s, (index, nelems) in enumerate(spans):
            pos, end = index, index + nelems
            while pos < end:
                count = min(end, (pos // bs + 1) * bs) - pos if bs else nelems
                seg = (s, pos - index, pos, count)
                _, node, lo = array.locate(pos)
                pos += count
                nsegs += 1
                if node == home:
                    items.append(seg)
                    continue
                nbytes = count * elem
                msg = ends.pop((node, lo), None)
                if msg is not None and msg[2] + nbytes <= cap:
                    msg[1].append(seg)
                    msg[2] += nbytes
                    merged += 1
                else:
                    if msg is not None:     # full: it stays closed there
                        ends[node, lo] = msg
                    msg = [node, [seg], nbytes, lo]
                    items.append(msg)
                    nmsgs += 1
                ends[node, msg[3] + msg[2]] = msg
        self._count(nsegs, nmsgs, merged)
        return [it if it.__class__ is tuple else _Message(*it)
                for it in items]

    def _runs(self, home: int, array: SharedArray, index: int, nelems: int):
        """A span of whole blocks, per owner: ``t`` holds every
        ``nthreads``-th block, back to back in its slot, so a remote
        owner's are one run (cut every ``per`` blocks by the cap, as the
        segment walk cuts them) and a local owner's stay bare."""
        bs, nthreads = array.layout.blocksize, array.layout.nthreads
        tpn, width = self._tpn, bs * array.elem_size
        step = nthreads * bs            # from one of t's blocks to the next
        per = max(1, self.max_coalesce_bytes // width)
        nblocks, first = nelems // bs, index // bs
        slots = [None] * nblocks
        nlocal = nmsgs = 0
        for j in range(min(nthreads, nblocks)):
            t = (first + j) % nthreads
            rows = (nblocks - 1 - j) // nthreads + 1
            at = j * bs
            if t // tpn == home:
                slots[j::nthreads] = zip(
                    repeat(0), range(at, nelems, step),
                    range(index + at, index + nelems, step), repeat(bs))
                nlocal += rows
                continue
            lo = t % tpn * array._chunk_bytes + (first + j) // nthreads * width
            for r in range(0, rows, per):
                k = min(per, rows - r)
                slots[j + r * nthreads] = _Run(
                    t // tpn, range(k), k * width, lo + r * width,
                    at + r * step, index + at + r * step)
                nmsgs += 1
        self._count(nblocks, nmsgs, nblocks - nlocal - nmsgs)
        return list(filter(None, slots))

    def _count(self, segments: int, messages: int, merged: int) -> None:
        """Each merged segment saves a request/reply control pair."""
        m = self.rt.metrics
        m.bulk_segments += segments
        m.bulk_messages += messages
        m.bulk_coalesced_segments += merged
        m.bulk_bytes_saved += 2 * self.rt.cluster.params.ctrl_bytes * merged

    def _issue(self, thread: "UPCThread", msg, op_id: int,
               inflight: int) -> None:
        self.live_messages += 1
        self.rt.metrics.bulk_depth.add(inflight)
        log = self.rt.events
        if log.enabled:
            log.emit(self.rt.sim.now, BULK_ISSUE, op=op_id,
                     thread=thread.id, node=thread.node.id, dst=msg.node,
                     nbytes=msg.nbytes, segments=len(msg.segments),
                     inflight=inflight)

    def _drive(self, thread: "UPCThread", items: List[object],
               local_gen, start, window: Optional[int], op_id: int):
        """Issue plan ``items`` under a sliding in-flight window with
        completion-driven refill.  *Every* item waits for a free slot
        first, so a window of 1 is the strictly serial order; a bare
        segment then runs inline (a scalar op), a message as its own
        process, ``start(msg, number)`` — the wait that meets the first
        to fail re-raises it."""
        depth = max(1, self.max_inflight if window is None else window)
        join = _Join(self)
        inflight: List = []
        sent = 0
        for item in items:
            while len(inflight) >= depth:
                yield join.park(inflight, 1)
                if join.failure is not None:
                    raise join.failure
                inflight = [p for p in inflight if not p._status]
            if item.__class__ is tuple:
                yield from local_gen(item)
                continue
            sent += 1
            proc = start(item, sent)
            proc._callbacks.append(join.landed)
            inflight.append(proc)
            self._issue(thread, item, op_id, len(inflight))
        pending = [p for p in inflight if not p._status]
        if pending:
            yield join.park(pending, len(pending))
            if join.failure is not None:
                raise join.failure

    def _transfer(self, thread: "UPCThread", array: SharedArray,
                  spans: Sequence[Tuple[int, int]], values,
                  window: Optional[int], single: bool = False):
        """One bulk GET (``values`` is None; returns a fresh array per
        span, the one span's alone if ``single``) or PUT (``values``:
        one flat array per span).

        A one-message plan runs in this frame.  The pipeline would
        spend three zero-delay events on it (message start, completion,
        the join's wake); at a :meth:`Simulator.quiescent` instant each
        is the very next dispatch, so dropping it reorders nothing, and
        elsewhere a ``yield 0.0`` takes its place (completion costs two:
        the gauge drops between the completion and the wake)."""
        rt = self.rt
        ops, sim = rt.ops, rt.sim
        kind = "get" if values is None else "put"
        items = self._plan(thread, array, spans)
        rt.metrics.bulk_transfers += 1
        op_id = thread._span_begin("bulk_" + kind, spans=len(spans))
        if op_id >= 0:
            wire = [len(it.segments) for it in items
                    if it.__class__ is not tuple]
            rt.events.emit(sim.now, BULK_PLAN, op=op_id,
                           thread=thread.id, node=thread.node.id,
                           messages=len(wire), wire_segments=sum(wire),
                           coalesced=sum(wire) - len(wire),
                           local=len(items) - len(wire))
        bufs = values if values is not None else [
            np.empty(nelems, dtype=array.dtype) for _, nelems in spans]

        def rows(buf, index: int, run: _Run):   # one view of all its blocks
            bs, elem = array.layout.blocksize, array.elem_size
            return np.ndarray((len(run.segments), bs), buf.dtype, buf,
                              index * elem,
                              (array.layout.nthreads * bs * elem, elem))

        def local_gen(seg: Segment):    # the op engine's generator itself
            span, offset, start, count = seg
            view = bufs[span][offset:offset + count]
            if values is None:
                return ops.get(thread, array, start, count, out=view)
            return ops.put(thread, array, start, view, count, proved=True)

        def send(msg):                  # the op engine's generator itself
            if values is None:
                return ops.get(thread, array, 0, bulk=(
                    msg.node, msg.arena_lo, msg.segments, msg.nbytes,
                    op_id))
            pairs = ([(msg.start, rows(bufs[0], msg.at, msg))]
                     if msg.__class__ is _Run else
                     [(start, bufs[span][offset:offset + count])
                      for span, offset, start, count in msg.segments])
            return ops.bulk_put(thread, array, msg.node, msg.arena_lo,
                                pairs, msg.nbytes, parent_op=op_id)

        def end(msg, number: int, err=None):
            # A GET's data, into the caller's bufs; or a failure named.
            if err is not None:
                if isinstance(err, ReliabilityError):
                    total = sum(it.__class__ is not tuple for it in items)
                    err.args = (f"bulk {kind} t{thread.id}->n{msg.node}, "
                                f"message {number} of {total}, failed "
                                f"after retries: {err.args[0]}",
                                *err.args[1:])
                return err
            if values is not None:
                return None
            data = array.data
            if msg.__class__ is _Run:
                rows(bufs[0], msg.at, msg)[...] = rows(data, msg.start, msg)
                return None
            for span, at, start, count in msg.segments:
                bufs[span][at:at + count] = data[start:start + count]

        def start(msg, number: int):    # a pipelined message's process
            proc = _Flight(sim, send(msg),
                           f"bulk[t{thread.id}->n{msg.node}]")
            proc.msg, proc.number, proc.end = msg, number, end
            return proc

        if len(items) == 1 and items[0].__class__ is not tuple:
            self._issue(thread, items[0], op_id, 1)
            if not sim.quiescent():
                yield 0.0
            failure = None
            try:
                try:
                    yield from send(items[0])
                    end(items[0], 1)
                except Exception as err:    # re-raised where the join did
                    failure = end(items[0], 1, err)
                quiet = sim.quiescent()
                if not quiet:
                    yield 0.0
            finally:
                self.live_messages -= 1
            if not quiet:
                yield 0.0
            if failure is not None:
                raise failure
        else:
            yield from self._drive(thread, items, local_gen, start,
                                   window, op_id)
        if op_id >= 0:
            rt.events.emit(sim.now, BULK_DRAIN, op=op_id,
                           thread=thread.id, node=thread.node.id)
            thread._span_end(op_id, proto="bulk", nbytes=sum(
                n for _, n in spans) * array.elem_size)
        return (bufs[0] if single else bufs) if values is None else None

    def get_spans(self, thread: "UPCThread", array: SharedArray,
                  spans: Sequence[Tuple[int, int]],
                  window: Optional[int] = None):
        """Fetch every ``(index, nelems)`` span.  Returns one NumPy
        array per input span, in input order."""
        return self._transfer(thread, array, spans, None, window)

    def put_spans(self, thread: "UPCThread", array: SharedArray,
                  puts: Sequence[Tuple[int, np.ndarray]],
                  window: Optional[int] = None):
        """Write every ``(index, values)`` span.  Returns at *local*
        completion of every message (the UPC relaxed model); remote
        application is tracked for fence/barrier as for a scalar PUT."""
        # Snapshot the spans now: the caller may reuse its buffers.
        values = [np.array(v, dtype=array.dtype).ravel() for _, v in puts]
        spans = [(index, len(vals)) for (index, _), vals in zip(puts, values)]
        return self._transfer(thread, array, spans, values, window)
