"""Remote access operations: GET and PUT with the address-cache fast
path (section 3).

Decision tree for every shared access (issued by ``thread``):

1. affine to the issuing thread → **local**: handle deref + load/store;
2. affine to another thread on the same node → **shared memory**:
   Pthreads share the arena directly (no network, no cache — the
   hybrid-mode property discussed in section 4.6);
3. remote, address cache **hit** → RDMA GET/PUT: the initiator
   computes ``base + offset`` itself, zero target-CPU involvement
   (Figure 3b);
4. remote, **miss** → the default AM protocol (Figure 3a / Figure 5),
   asking the target's header handler to piggyback the arena's base
   address so the *next* access to that (handle, node) pair hits.

On the target side the header handler pays the SVD translation and,
on first touch, pins the object per the configured policy and records
it in the pinned address table — "before an address can be tagged in
another node's address cache it needs to be pinned locally" (3.1).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.core.pinned_table import UNPINNABLE
from repro.core.policy import ranges_to_pin
from repro.network.node import Node
from repro.obs.events import (
    CACHE_LOOKUP,
    CACHE_SEED,
    COMP_PIGGYBACK,
    DEGRADE,
    OP_BEGIN,
    OP_END,
    PHASE,
)
from repro.runtime.errors import AffinityError, SVDError
from repro.runtime.shared_array import SharedArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import UPCThread


class OpEngine:
    """Implements GET/PUT against a runtime's cluster + directory."""

    def __init__(self, runtime: "Runtime") -> None:
        self.rt = runtime
        self.params = runtime.cluster.params
        # Cached for the per-op hot path (attribute chains and property
        # calls add up at 10^5 ops per sweep); all are fixed for the
        # runtime's life.
        self.sim = runtime.sim
        self.events = runtime.events
        piggy = runtime.config.piggyback
        self.dedicated_fetch = piggy.needs_dedicated_fetch
        self.wants_address = piggy.wants_address
        self.reply_extra = piggy.reply_extra_bytes()
        # The PUT fast path (section 4.3): the config's override, else
        # the platform default; never without a cache or RDMA.
        cfg = runtime.config
        self.use_rdma_put = bool(
            cfg.cache_enabled and cfg.machine.transport.supports_rdma
            and (cfg.machine.use_rdma_put_default if cfg.use_rdma_put is None
                 else cfg.use_rdma_put))

    # A recorder that is off costs the caller one test: an op opens its
    # span only ``if events.enabled`` (op id -1 otherwise) and closes
    # it only when the op id is not -1.

    def _begin(self, thread: "UPCThread", name: str, **attrs) -> int:
        """Open a flight-recorder op span; returns its op id."""
        log = self.events
        op_id = log.next_op_id()
        log.emit(self.sim.now, OP_BEGIN, op=op_id, thread=thread.id,
                 node=thread.node.id, name=name, **attrs)
        return op_id

    def _end(self, thread: "UPCThread", op_id: int, proto: str,
             **attrs) -> None:
        self.events.emit(self.sim.now, OP_END, op=op_id, thread=thread.id,
                         node=thread.node.id, proto=proto, **attrs)

    # ------------------------------------------------------------------
    # GET
    # ------------------------------------------------------------------

    def get(self, thread: "UPCThread", array: SharedArray, index: int,
            nelems: int = 1, scalar: bool = False, bulk=None, out=None):
        """Blocking read of ``array[index : index+nelems]``.

        Returns a NumPy array of ``nelems`` values (copy), or the
        element itself when ``scalar`` (``th.get`` of one element).
        With ``out`` (a bare segment the bulk planner proved in range
        and in one block) the values land there and nothing is returned.

        ``bulk`` is set by the bulk engine alone: the ``(node_id,
        offset, segments, nbytes, parent_op)`` of one coalesced wire
        GET, placed back-to-back from byte ``offset`` of that arena, so
        the affinity tests are skipped; the engine copies the data out.

        A remote read is this one frame: cache lookup, the RDMA fast
        path, the piggybacked AM miss and the seed insert are inline,
        so each resumption re-enters only the transport generator it
        is suspended in.
        """
        rt = self.rt
        sim = self.sim
        t0 = sim.now
        p = self.params
        log = self.events
        if array.freed:
            raise SVDError(f"use-after-free: {array.handle} was deallocated")
        if bulk is None:
            if nelems > 1 and out is None:
                self._check_one_owner(array, index, nelems)
            op_id = (self._begin(thread, "get", index=index, nelems=nelems)
                     if log.enabled else -1)
            yield p.o_sw_us

            owner_thread, node_id, offset = array.locate(index)
            nbytes = nelems * array.elem_size

            if node_id == thread.node.id:
                # A load of our own element, or shared memory on this node.
                local = owner_thread == thread.id
                yield (p.local_access_us if local
                       else p.shm_access_us + nbytes * p.memcpy_byte_us)
                (rt.metrics.get_local if local
                 else rt.metrics.get_shm).add(sim.now - t0)
                if op_id >= 0:
                    self._end(thread, op_id, "local" if local else "shm",
                              nbytes=nbytes)
                if out is not None:
                    out[:] = array.data[index:index + nelems]
                    return None
                return (array.data[index] if scalar
                        else array.read(index, nelems))
        else:
            node_id, offset, segments, nbytes, parent_op = bulk
            op_id = (self._begin(thread, "get", bulk=True, parent=parent_op,
                                 segments=len(segments))
                     if log.enabled else -1)
            yield p.o_sw_us

        src = thread.node
        dst = rt.cluster.node(node_id)
        transport = rt.cluster.transport
        cache = rt.addr_cache(src.id)
        # Only *network* operations enter the messaging library — and
        # with it the polling progress engine.  Local and intra-node
        # shared-memory accesses are plain loads/stores that never
        # drive the network (the root of the Field pathology, 4.6).
        src.progress.enter_runtime()
        try:
            base, cost = cache.lookup(array.handle, node_id)
            if log.enabled:
                log.emit(sim.now, CACHE_LOOKUP, op=op_id, thread=thread.id,
                         node=src.id, target=node_id, hit=base is not None)
            if cost:
                yield cost

            ok = False
            if base is not None:
                # Fast path (Figure 3b): address known, fire RDMA.
                ok = yield from transport.rdma_get(src, dst, nbytes,
                                                   op_id=op_id)
                if ok:
                    rt.metrics.rdma_gets += 1
                else:
                    # Completion timeout: the cached address is suspect
                    # — drop exactly that entry (O(1)) and degrade to
                    # the AM path, whose piggybacked reply re-seeds the
                    # cache.
                    self._rdma_fallback(cache, array, src, dst, op_id,
                                        "get")

            if not ok:
                # Slow path (Figure 3a / Figure 5): default protocol,
                # asking the target to piggyback its arena base address.
                rt.metrics.am_gets += 1
                dedicated = self.dedicated_fetch
                if dedicated:
                    # Ablation strawman: a separate address-fetch round
                    # trip (its handler only translates and pins; the
                    # mode adds no reply bytes), then RDMA for the data.
                    handler = self._make_get_handler(
                        array, dst, want_addr=True, touch_offset=offset,
                        touch_bytes=array.elem_size)
                    reply = yield from transport.default_get(
                        src, dst, p.ctrl_bytes, handler, op_id=op_id)
                else:
                    handler = self._make_get_handler(
                        array, dst,
                        want_addr=self.wants_address and cache.enabled,
                        touch_offset=offset, touch_bytes=nbytes)
                    reply = yield from transport.default_get(
                        src, dst, nbytes, handler, src_addr=src.memory.base,
                        dst_addr=array.node_base[node_id] + offset,
                        op_id=op_id)
                if reply is not None:
                    # Seed the cache; the insert cost is the piggyback's
                    # software share of the op's critical path.
                    cost = cache.insert(array.handle, node_id, reply)
                    if log.enabled:
                        log.emit(sim.now, CACHE_SEED, op=op_id, node=src.id,
                                 target=node_id, handle=str(array.handle))
                    yield cost
                    if log.enabled and op_id >= 0 and cost > 0:
                        log.emit(sim.now, PHASE, op=op_id, node=src.id,
                                 comp=COMP_PIGGYBACK, dur=cost)
                if dedicated:
                    moved = yield from transport.rdma_get(src, dst, nbytes,
                                                          op_id=op_id)
                    if not moved:
                        # The dedicated-fetch ablation has no
                        # piggybacked data reply to fall back on; move
                        # the data over plain AM.
                        self._rdma_fallback(cache, array, src, dst, op_id,
                                            "get")
                        yield from transport.default_get(
                            src, dst, nbytes, None, op_id=op_id)
        finally:
            src.progress.leave_runtime()
        rt.metrics.get_remote.add(sim.now - t0)
        if op_id >= 0:
            self._end(thread, op_id, "rdma" if ok else "am", nbytes=nbytes)
        if out is not None:     # a bare segment with the engine off
            out[:] = array.data[index:index + nelems]
        elif bulk is None:      # a bulk GET's caller copies the data out
            return array.data[index] if scalar else array.read(index, nelems)

    def _rdma_fallback(self, cache, array: SharedArray, src: Node,
                       dst: Node, op_id: int, what: str) -> None:
        """Book-keeping for an RDMA completion timeout: count it,
        invalidate the suspect cache entry (O(1)), record the
        degradation."""
        rt = self.rt
        rt.metrics.rdma_timeouts += 1
        cache.invalidate_entry(array.handle, dst.id)
        log = rt.events
        if log.enabled:
            log.emit(rt.sim.now, DEGRADE, op=op_id, node=src.id,
                     mode="rdma_to_am", what=what, target=dst.id,
                     handle=str(array.handle))

    # ------------------------------------------------------------------
    # PUT
    # ------------------------------------------------------------------

    def put(self, thread: "UPCThread", array: SharedArray, index: int,
            values, nelems: Optional[int] = None, proved: bool = False):
        """Write ``values`` to ``array[index:...]``.

        Returns once the operation is *locally* complete (the UPC
        relaxed model); the write lands in the data plane when the
        target applies it.  Use fence/barrier to order.  A remote PUT
        returns the event that fires at that point (None otherwise).
        ``proved``: a bare segment of a bulk plan, in one block.
        """
        rt = self.rt
        sim = rt.sim
        p = self.params
        t0 = sim.now
        values = np.asarray(values, dtype=array.dtype).ravel()
        if nelems is None:
            nelems = len(values)
        if len(values) != nelems:
            values = np.resize(values, nelems)
        if array.freed:
            raise SVDError(f"use-after-free: {array.handle} was deallocated")
        if nelems > 1 and not proved:
            self._check_one_owner(array, index, nelems)
        op_id = (self._begin(thread, "put", index=index, nelems=nelems)
                 if self.events.enabled else -1)
        yield p.o_sw_us

        owner_thread, owner_node_id, offset = array.locate(index)
        nbytes = nelems * array.elem_size

        if owner_thread == thread.id:
            yield p.local_access_us
            array.write(index, values)
            rt.metrics.put_local.add(sim.now - t0)
            if op_id >= 0:
                self._end(thread, op_id, "local", nbytes=nbytes)
            return

        if owner_node_id == thread.node.id:
            yield p.shm_access_us + nbytes * p.memcpy_byte_us
            array.write(index, values)
            rt.metrics.put_shm.add(sim.now - t0)
            if op_id >= 0:
                self._end(thread, op_id, "shm", nbytes=nbytes)
            return

        src = thread.node
        dst = rt.cluster.node(owner_node_id)
        src.progress.enter_runtime()
        try:
            applied, proto = yield from self._remote_put(
                thread, src, dst, array, [(index, values.copy())], offset,
                nbytes, op_id)
        finally:
            src.progress.leave_runtime()
        rt.metrics.put_remote.add(sim.now - t0)
        if op_id >= 0:
            self._end(thread, op_id, proto, nbytes=nbytes)
        return applied

    def bulk_put(self, thread: "UPCThread", array: SharedArray,
                 node_id: int, offset: int, pairs, nbytes: int,
                 parent_op: int = -1):
        """One coalesced wire PUT on behalf of the bulk engine.

        ``pairs`` is a list of ``(start, snapshot)`` affine segments (a
        two-dimensional snapshot is a run, a row per block), back-to-back
        from byte ``offset`` of ``node_id``'s arena.  Locally complete on
        return (relaxed); remote application — of every constituent
        segment at once — is tracked for fence/barrier.
        """
        rt = self.rt
        sim = rt.sim
        t0 = sim.now
        if array.freed:
            raise SVDError(f"use-after-free: {array.handle} was deallocated")
        op_id = (self._begin(thread, "put", bulk=True, parent=parent_op,
                             segments=sum(len(s) if s.ndim == 2 else 1
                                          for _, s in pairs))
                 if self.events.enabled else -1)
        yield self.params.o_sw_us
        src = thread.node
        dst = rt.cluster.node(node_id)
        src.progress.enter_runtime()
        try:
            applied, proto = yield from self._remote_put(
                thread, src, dst, array, pairs, offset, nbytes, op_id)
        finally:
            src.progress.leave_runtime()
        rt.metrics.put_remote.add(sim.now - t0)
        if op_id >= 0:
            self._end(thread, op_id, proto, nbytes=nbytes)
        return applied

    def _remote_put(self, thread: "UPCThread", src: Node, dst: Node,
                    array: SharedArray, pairs, offset: int, nbytes: int,
                    op_id: int = -1):
        """Issue one wire PUT covering ``pairs`` — a list of
        ``(index, snapshot)`` segments contiguous in the target arena
        from byte ``offset`` (a single-segment list for the scalar
        path).  Returns ``(applied event, protocol name)``."""
        rt = self.rt
        sim = rt.sim
        log = rt.events
        cache = rt.addr_cache(src.id)

        if self.use_rdma_put:
            base, cost = cache.lookup(array.handle, dst.id)
            if log.enabled:
                log.emit(sim.now, CACHE_LOOKUP, op=op_id,
                         thread=thread.id, node=src.id, target=dst.id,
                         hit=base is not None)
            if cost:
                yield cost
            if base is not None:
                applied = yield from rt.cluster.transport.rdma_put(
                    src, dst, nbytes, op_id=op_id)
                if applied is not None:
                    rt.metrics.rdma_puts += 1
                    self._apply_on(applied, array, pairs)
                    thread.track_put(applied)
                    return applied, "rdma"
                # Completion timeout: drop the suspect entry and fall
                # through to the AM path, which re-issues the store.
                self._rdma_fallback(cache, array, src, dst, op_id,
                                    "put")

        # Default protocol; the ACK piggybacks the address home
        # (asynchronously — off the initiator's critical path).
        rt.metrics.am_puts += 1
        want_addr = self.wants_address and self.use_rdma_put
        handler = self._make_get_handler(
            array, dst, want_addr=want_addr,
            touch_offset=offset, touch_bytes=nbytes)
        applied = yield from rt.cluster.transport.default_put(
            src, dst, nbytes, handler, src_addr=src.memory.base,
            dst_addr=array.node_base[dst.id] + offset, op_id=op_id)
        self._apply_on(applied, array, pairs)
        thread.track_put(applied)
        if want_addr:
            self._insert_on_ack(applied, src, dst, array, op_id)
        return applied, "am"

    def _apply_on(self, remote_applied, array: SharedArray,
                  snapshots) -> None:
        """Write the snapshots into the data plane when the target
        observes the put, each through a view of the data plane shaped
        like it: a bulk run's rows lie as far apart there as in its
        span buffer, so one strided copy writes them all."""

        def _apply(ev):
            if ev._exc is not None:
                # The reliability layer gave up on the message; the
                # store was never observed — surface the failure at
                # the fence, don't apply phantom bytes.
                return
            data = array.data
            for index, snapshot in snapshots:
                np.ndarray(snapshot.shape, data.dtype, data,
                           index * data.itemsize,
                           snapshot.strides)[...] = snapshot

        remote_applied.add_callback(_apply)

    def _insert_on_ack(self, remote_applied, src: Node, dst: Node,
                       array: SharedArray, op_id: int = -1) -> None:
        """PiggybackMode.ON_ACK path: once the target applied the put,
        the ACK carries the base address back after one wire latency."""
        rt = self.rt

        def _tail():
            yield rt.cluster.topology.latency(dst.id, src.id)
            if array.freed:
                # The object was deallocated while the ack was in
                # flight; inserting now would resurrect a stale entry
                # the eager invalidation already removed.
                return
            if dst.pins.handles.get(array.handle) == UNPINNABLE:
                # Registration failed on the target: the arena base is
                # known but RDMA to it would touch unpinned memory, so
                # no address goes home and the object stays on AM.
                return
            base = self._target_base_addr(array, dst)
            if base is not None:
                cache = rt.addr_cache(src.id)
                cache.insert(array.handle, dst.id, base)
                log = rt.events
                if log.enabled:
                    log.emit(rt.sim.now, CACHE_SEED, op=op_id,
                             node=src.id, target=dst.id,
                             handle=str(array.handle), on_ack=True)

        def _spawn(ev):
            if ev._exc is None:
                rt.sim.spawn(_tail(), name="put-ack-piggyback")

        remote_applied.add_callback(_spawn)

    def _check_one_owner(self, array: SharedArray, index: int,
                         nelems: int) -> None:
        """A single GET/PUT must target one affine region; larger
        spans go through memget/memput, which split per block."""
        if array.owner is None and not array.layout.contiguous_span(
                index, nelems):
            raise AffinityError(
                f"span [{index}, {index + nelems}) crosses a block "
                "boundary; use memget/memput for multi-block transfers")

    # ------------------------------------------------------------------
    # Target-side handlers
    # ------------------------------------------------------------------

    def _make_get_handler(self, array: SharedArray, dst: Node,
                          want_addr: bool, touch_offset: int = 0,
                          touch_bytes: int = 1):
        """Header handler run on the target (Figure 5, italic parts):
        SVD translation + (optionally) pin-and-report-base-address."""
        rt = self.rt
        p = self.params

        def handler(node: Node) -> Tuple[float, Optional[int], int]:
            replica = rt.svd(node.id)
            replica.lookup_local(array.handle)  # the unavoidable deref
            cost = p.svd_lookup_us
            payload: Optional[int] = None
            extra = 0
            if want_addr:
                # A pinned (or degraded) object is one dict probe.
                known = node.pins.handles.get(array.handle)
                if known is None:
                    pin_cost, known = self._ensure_pinned(
                        array, node, touch_offset, touch_bytes)
                    cost += pin_cost
                if known[0]:
                    payload = known[1]
                    extra = self.reply_extra
                # else: degraded — no address goes home, the cache is
                # never seeded, and this object stays on the AM path.
            return cost, payload, extra

        return handler

    def _ensure_pinned(self, array: SharedArray, node: Node,
                       touch_offset: int, touch_bytes: int
                       ) -> Tuple[float, Tuple[bool, Optional[int]]]:
        """First-touch pinning per the configured policy (section 3.1):
        PIN_EVERYTHING registers the whole arena; CHUNKED registers
        only the chunk(s) containing the touched range.

        Returns ``(cost_us, (pinned, base))``, ``base`` being the
        address that goes into remote caches.  Once the whole arena is
        pinned that pair is fixed until free, so the table keeps it in
        ``handles`` and the next miss skips this method.

        Registration can fail — the real registered-memory limit, or
        the fault plane's injected budget.  When degradation is active
        (a fault plane is installed, or ``degrade_pin_failures`` is
        set) the handle is marked :data:`UNPINNABLE` and served over AM
        forever; otherwise the failure propagates as
        :class:`PinLimitError`, the strict pre-fault behavior.
        """
        rt = self.rt
        base = array.node_base.get(node.id)
        if base is None:
            return 0.0, (True, None)
        size = array.node_bytes[node.id]
        table = node.pins
        faults = rt.faults
        touch_bytes = min(touch_bytes, size - touch_offset)
        cost = 0.0
        ranges = ranges_to_pin(
            rt.config.pinning_policy, base, size,
            touch_offset=touch_offset, touch_size=max(1, touch_bytes),
            chunk_bytes=rt.config.pin_chunk_bytes)
        for vaddr, span in ranges:
            if (faults is not None
                    and not table.is_pinned(vaddr, span)
                    and not faults.pin_allowed(node.id, span)):
                ok = False
            else:
                c, ok = table.register(array.handle, vaddr, span)
                cost += c
            if not ok:
                if faults is None and not rt.config.degrade_pin_failures:
                    raise table.last_pin_error
                table.handles[array.handle] = UNPINNABLE
                rt.metrics.pin_degrades += 1
                log = rt.events
                if log.enabled:
                    log.emit(rt.sim.now, DEGRADE, node=node.id,
                             mode="unpinnable",
                             handle=str(array.handle))
                return cost, UNPINNABLE
        if ranges == [(base, size)]:
            known = (True, table.phys_base + base)
            table.handles[array.handle] = known
            return cost, known
        phys = table.lookup_phys(base)   # CHUNKED: chunk 0 may be unpinned
        return cost, (True, base if phys is None else phys)

    def _target_base_addr(self, array: SharedArray,
                          node: Node) -> Optional[int]:
        """The address that goes into remote caches: the *physical*
        base of this node's arena (RDMA-format, per section 3).

        Under the CHUNKED policy the arena base itself may be unpinned
        (only touched chunks are registered); the virtual base is then
        handed out as the cacheable token — the pinned address table
        resolves chunk physical addresses at transfer time.
        """
        base = array.node_base.get(node.id)
        if base is None:
            return None
        phys = node.pins.lookup_phys(base)
        return phys if phys is not None else base
