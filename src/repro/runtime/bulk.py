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

2. **Bounded in-flight windows** — the planned messages are issued as
   nonblocking simulator processes under a sliding window of
   ``bulk_max_inflight`` with completion-driven refill: a true
   pipeline, not lock-step batching.  A plan that is one message has no
   pipeline to run and is issued in the calling process, on the same
   schedule (:meth:`BulkEngine._transfer`).

With ``bulk_enabled`` off nothing goes on the wire from here: every
segment is issued in order through the scalar op engine, one blocking
round trip per block — which window 1 with coalescing off reproduces.
The engine only *schedules*; protocol selection (RDMA vs. the default
AM protocol) stays inside :class:`~repro.runtime.ops.OpEngine`, whose
callbacks apply the data plane: results are bit-identical on or off.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import add, gt, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.obs.events import BULK_DRAIN, BULK_ISSUE, BULK_PLAN
from repro.faults.reliability import ReliabilityError
from repro.runtime.errors import UPCRuntimeError
from repro.runtime.shared_array import SharedArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import UPCThread

#: One affine segment: (span index, offset in span, start, count).  A bare
#: one in a plan is issued inline through the scalar op engine, in order.
Segment = Tuple[int, int, int, int]

#: A place in the arenas as one int: node above this bit, offset below.
_NODE = 48
_ARENA = (1 << _NODE) - 1


class _Message(NamedTuple):
    """One planned wire message: arena-contiguous segments, one node."""
    node: int
    segments: List[Segment]
    nbytes: int
    arena_lo: int


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
                if msg.processed:
                    self.failure = msg.exception
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
            self.failure = msg.exception
            self.need = self.need - 1 if self.failure is None else 0
            if not self.need:
                msg.sim._wake(self.token, 0.0)


class BulkEngine:
    """Plans and drives coalesced, windowed bulk transfers."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self.enabled = runtime.config.bulk_enabled
        self.max_inflight = runtime.config.bulk_max_inflight
        self.max_coalesce_bytes = runtime.config.bulk_max_coalesce_bytes
        self._tpn = runtime.config.effective_threads_per_node
        #: Gauge: wire messages currently in flight across all bulk
        #: operations (sampled by :mod:`repro.obs.sampler`).
        self.live_messages = 0

    def _plan(self, thread: "UPCThread", array: SharedArray,
              spans: Sequence[Tuple[int, int]]):
        """Split spans at affinity boundaries, then coalesce: the issue
        order — bare :data:`Segment` tuples and :class:`_Message`
        entries, a message where its *first* segment sat.  A span in
        one block is located directly; one that crosses blocks has its
        segments' owners and arena offsets computed as arrays."""
        home = thread.node.id
        elem = array.elem_size
        bs = 0 if array.owner is not None else array.layout.blocksize
        m = self.rt.metrics
        if len(spans) == 1 and spans[0][1] > 0 and self.enabled:
            index, nelems = spans[0]
            if not bs or index // bs == (index + nelems - 1) // bs:
                _, node, lo = array.locate(index)   # the usual span: O(1)
                m.bulk_segments += 1
                m.bulk_messages += node != home
                seg = (0, 0, index, nelems)
                return [seg if node == home
                        else _Message(node, [seg], nelems * elem, lo)]
        # (segments, scan positions) by destination; and for each wire
        # segment the place its bytes begin at, and how many they are.
        local, wire = ([], []), ([], [])
        begin, size, nsegs = [], [], 0
        for s, (index, nelems) in enumerate(spans):
            if nelems <= 0:     # upc_memget(p, q, 0) is a no-op, not an error
                if nelems < 0:
                    raise UPCRuntimeError(
                        f"nelems must be >= 0, got {nelems}")
            elif not bs or index // bs == (index + nelems - 1) // bs:
                _, node, lo = array.locate(index)
                away = self.enabled and node != home
                segs, at = wire if away else local
                segs.append((s, 0, index, nelems))
                at.append(nsegs)
                if away:
                    begin.append(node << _NODE | lo)
                    size.append(nelems * elem)
                nsegs += 1
            else:
                edges = np.arange(index // bs,
                                  (index + nelems - 1) // bs + 2) * bs
                edges[0], edges[-1] = index, index + nelems
                start, count = edges[:-1], edges[1:] - edges[:-1]
                lay = array.layout
                if not 0 <= index <= start[-1] < lay.nelems:
                    array.locate(index)             # one of them raises
                    array.locate(int(start[-1]))
                # SharedArray.locate, for every segment at once.
                block = start // bs
                owner = block % lay.nthreads
                node = owner // self._tpn
                lo = (owner % self._tpn * lay.thread_chunk_bytes
                      + block // lay.nthreads * (bs * elem))
                lo[0] += index % bs * elem
                away = (node != home) & self.enabled
                for keep, (segs, at) in ((~away, local), (away, wire)):
                    pick = keep.nonzero()[0]
                    at += (pick + nsegs).tolist()
                    segs += zip(repeat(s), (start[pick] - index).tolist(),
                                start[pick].tolist(), count[pick].tolist())
                begin += (node[away] << _NODE | lo[away]).tolist()
                size += (count[away] * elem).tolist()
                nsegs += len(start)
        segs, at = wire
        if len(segs) > 1 and not set(begin).isdisjoint(map(add, begin, size)):
            messages, at = self._coalesce(segs, at, begin, size)
        else:                       # nothing ends where something begins
            messages = [_Message(lo >> _NODE, [seg], nbytes, lo & _ARENA)
                        for seg, lo, nbytes in zip(segs, begin, size)]
        m.bulk_segments += nsegs * self.enabled
        m.bulk_messages += len(messages)
        merged = len(segs) - len(messages)
        m.bulk_coalesced_segments += merged
        # Each merged segment avoids one request/reply control-message
        # pair on the wire.
        m.bulk_bytes_saved += 2 * self.rt.cluster.params.ctrl_bytes * merged
        items, order = local[0] + messages, local[1] + at
        if any(map(gt, order, order[1:])):
            items = list(itemgetter(*np.argsort(order).tolist())(items))
        return items

    def _coalesce(self, segs, at, begin, size):
        """Merge wire segments into messages (and say where in the
        scan each sits): a later segment joins the message whose arena
        range *ends* where it begins, whatever interleaved in between,
        up to the cap.  A node's arena packs each thread's blocks
        contiguously per thread slot, so a block-cyclic scan revisits
        several growing ranges in round-robin, all coalescing at once."""
        n = len(segs)
        begin = np.array(begin, dtype=np.int64)
        size = np.array(size, dtype=np.int64)
        # Event 2r: segment r begins at its place; 2r+1: it ends.  A
        # stable sort lists each byte's events in scan order; r continues
        # what q closed when r's begin directly follows q's end there.
        place = np.empty(2 * n, dtype=np.int64)
        place[0::2] = begin
        place[1::2] = begin + size
        by_place = place.argsort(kind="stable")
        place = place[by_place]
        same = place[1:] == place[:-1]
        before, after = by_place[:-1][same], by_place[1:][same]
        joins = (before & ~after & 1) == 1
        head = np.arange(n)
        head[after[joins] >> 1] = before[joins] >> 1
        njoins = int(np.count_nonzero(joins))
        for _ in range(njoins.bit_length()):
            head = head[head]       # pointer doubling, to chain heads
        # Chains laid end to end in scan order: ``stop_of`` maps each
        # one's first position to its end; ``upto[k]`` bytes precede k.
        chain = head.argsort(kind="stable")
        heads = head[chain]
        stops = ((heads[1:] != heads[:-1]).nonzero()[0] + 1).tolist() + [n]
        stop_of = dict(zip([0] + stops, stops))
        upto = [0] + size[chain].cumsum().tolist()
        pick = itemgetter(*chain.tolist())
        segs, at = pick(segs), pick(at)
        begin = begin[chain].tolist()
        rival = {}
        if njoins < len(before):
            # A begin that follows another begin lost the race for that
            # end; it gets its turn if the cap turns the winner away.
            lost = (~before & ~after & 1) == 1
            rank = chain.argsort()      # scan order -> chain position
            rival = dict(zip(rank[before[lost] >> 1].tolist(),
                             rank[after[lost] >> 1].tolist()))
        cap = self.max_coalesce_bytes
        todo = list(stop_of)[::-1]
        messages, where = [], []
        while todo:
            k = first = todo.pop()
            stop = stop_of.pop(k, None)
            if stop is None:
                continue            # a rival that got its turn
            parts, nbytes = [], 0
            while True:
                # As far down this chain as the cap allows; a message's
                # first segment is never split off, whatever its size.
                end = bisect_right(upto, cap - nbytes + upto[k], k,
                                   stop + 1) - 1
                end += end == k
                parts += segs[k:end]
                nbytes += upto[end] - upto[k]
                if end == stop:
                    break
                todo.append(end)    # turned away: it opens a message
                stop_of[end] = stop
                k = rival.get(end)
                while k is not None and nbytes + upto[k + 1] - upto[k] > cap:
                    k = rival.get(k)
                if k is None:
                    break
                stop = stop_of.pop(k)
            messages.append(_Message(begin[first] >> _NODE, parts, nbytes,
                                     begin[first] & _ARENA))
            where.append(at[first])
        return messages, where

    def _issue(self, thread: "UPCThread", msg: _Message, op_id: int,
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
               local_gen, msg_gen, window: Optional[int], op_id: int):
        """Issue plan ``items`` under a sliding in-flight window with
        completion-driven refill.  *Every* item waits for a free slot
        first, so a window of 1 is the strictly serial order; a bare
        segment then runs inline (a scalar op), a message as a detached
        process — the wait that meets the first to fail re-raises it."""
        sim = self.rt.sim
        depth = max(1, self.max_inflight if window is None else window)
        join = _Join(self)
        inflight: List = []
        sent = 0
        for item in items:
            while len(inflight) >= depth:
                yield join.park(inflight, 1)
                if join.failure is not None:
                    raise join.failure
                inflight = [p for p in inflight if not p.triggered]
            if item.__class__ is tuple:
                yield from local_gen(item)
                continue
            sent += 1
            proc = sim.process(msg_gen(item, sent),
                               name=f"bulk[t{thread.id}->n{item.node}]")
            proc.add_callback(join.landed)
            inflight.append(proc)
            self._issue(thread, item, op_id, len(inflight))
        pending = [p for p in inflight if not p.triggered]
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
        elsewhere a ``yield 0.0`` takes its place.  Completion costs
        two: the wake is queued only when the completion is
        *dispatched*, and the gauge drops between them."""
        rt = self.rt
        ops = rt.ops
        kind = "get" if values is None else "put"
        op_id = -1
        if self.enabled:
            rt.metrics.bulk_transfers += 1
            op_id = thread._span_begin("bulk_" + kind, spans=len(spans))
        items = self._plan(thread, array, spans)
        if op_id >= 0:
            wire = [len(it.segments) for it in items
                    if it.__class__ is _Message]
            rt.events.emit(rt.sim.now, BULK_PLAN, op=op_id,
                           thread=thread.id, node=thread.node.id,
                           messages=len(wire), wire_segments=sum(wire),
                           coalesced=sum(wire) - len(wire),
                           local=len(items) - len(wire))
        bufs = values if values is not None else [
            np.empty(nelems, dtype=array.dtype) for _, nelems in spans]

        def local_gen(seg: Segment):
            span, offset, start, count = seg
            view = bufs[span][offset:offset + count]
            if values is None:
                view[:] = yield from ops.get(thread, array, start, count)
            else:
                yield from ops.put(thread, array, start, view, count)

        def send(msg: _Message):    # the op engine's generator itself
            if values is None:
                return ops.get(thread, array, 0, bulk=(
                    msg.node, msg.arena_lo, msg.segments, msg.nbytes,
                    op_id))
            return ops.bulk_put(
                thread, array, msg.node, msg.arena_lo,
                [(start, bufs[span][offset:offset + count])
                 for span, offset, start, count in msg.segments],
                msg.nbytes, parent_op=op_id)

        def named(err: Exception, msg: _Message, number: int):
            # Retry exhaustion names the message, pipelined or inline.
            if isinstance(err, ReliabilityError):
                total = sum(it.__class__ is _Message for it in items)
                err.args = (f"bulk {kind} t{thread.id}->n{msg.node}, "
                            f"message {number} of {total}, failed after "
                            f"retries: {err.args[0]}", *err.args[1:])
            return err

        def land(msg: _Message):    # a GET's data, into the caller's bufs
            if values is None:
                for span, at, start, count in msg.segments:
                    bufs[span][at:at + count] = array.data[start:start + count]

        def msg_gen(msg: _Message, number: int):
            try:
                yield from send(msg)
            except Exception as err:
                raise named(err, msg, number)
            land(msg)

        if len(items) == 1 and items[0].__class__ is _Message:
            self._issue(thread, items[0], op_id, 1)
            if not rt.sim.quiescent():
                yield 0.0
            failure = None
            try:
                try:
                    yield from send(items[0])
                    land(items[0])
                except Exception as err:    # re-raised where the join did
                    failure = named(err, items[0], 1)
                quiet = rt.sim.quiescent()
                if not quiet:
                    yield 0.0
            finally:
                self.live_messages -= 1
            if not quiet:
                yield 0.0
            if failure is not None:
                raise failure
        else:
            yield from self._drive(thread, items, local_gen, msg_gen,
                                   window, op_id)
        if op_id >= 0:
            rt.events.emit(rt.sim.now, BULK_DRAIN, op=op_id,
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
