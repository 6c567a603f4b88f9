"""The program-facing UPC thread API.

UPC kernels are generator coroutines receiving a :class:`UPCThread`::

    def kernel(th):
        arr = yield from th.all_alloc(1 << 20, blocksize=4096,
                                      dtype="u8")
        v = yield from th.get(arr, 12345)
        yield from th.put(arr, 0, v + 1)
        yield from th.barrier()

Every blocking call brackets itself with the node progress engine's
``enter_runtime``/``leave_runtime`` so that, on polling transports, a
thread blocked in communication serves incoming AM handlers while a
thread busy in :meth:`compute` does not — the GM/LAPI asymmetry of
sections 4.6/4.7.
"""

from __future__ import annotations

import math
from typing import List, Optional, TYPE_CHECKING

from repro.obs.events import OP_BEGIN, OP_END
from repro.runtime.errors import UPCRuntimeError
from repro.runtime.shared_array import SharedArray
from repro.runtime.shared_lock import SharedLock
from repro.sim.event import AllOf, Event
from repro.util.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class UPCThread:
    """One UPC thread pinned to a node."""

    def __init__(self, runtime: "Runtime", thread_id: int,
                 node_id: int) -> None:
        self.runtime = runtime
        self.id = thread_id
        self.node = runtime.cluster.node(node_id)
        #: Outstanding put completions (drained by fence/barrier).
        self._outstanding_puts: List[Event] = []
        #: Deterministic per-thread RNG for workloads.
        self.rng = seeded_rng(runtime.config.seed, thread_id)

    # -- identity -------------------------------------------------------

    @property
    def nthreads(self) -> int:
        """UPC's ``THREADS``."""
        return self.runtime.nthreads

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<UPCThread {self.id}@node{self.node.id}>"

    # -- runtime bracketing ------------------------------------------------

    def _in_runtime(self, gen):
        """Run a blocking runtime op while polling the network."""
        progress = self.node.progress
        progress.enter_runtime()
        try:
            result = yield from gen
        finally:
            progress.leave_runtime()
        return result

    def _span_begin(self, name: str, **attrs) -> int:
        """Open a flight-recorder span for a thread-level op (barrier,
        lock, compute — strictly sequential per thread)."""
        log = self.runtime.events
        if not log.enabled:
            return -1
        op_id = log.next_op_id()
        log.emit(self.runtime.sim.now, OP_BEGIN, op=op_id,
                 thread=self.id, node=self.node.id, name=name, **attrs)
        return op_id

    def _span_end(self, op_id: int, **attrs) -> None:
        log = self.runtime.events
        if log.enabled and op_id >= 0:
            log.emit(self.runtime.sim.now, OP_END, op=op_id,
                     thread=self.id, node=self.node.id, **attrs)

    # -- data movement -------------------------------------------------------

    def get(self, array: SharedArray, index: int, nelems: int = 1):
        """Blocking read; returns np scalar (nelems=1) or array.

        Not a generator itself: it hands back the op engine's, so a
        ``yield from th.get(...)`` resumes one frame less deep.

        Progress note: the op engine enters the messaging library (and
        hence polls, on GM) only when the access is actually remote;
        local and same-node accesses are plain memory operations.
        """
        return self.runtime.ops.get(self, array, index, nelems,
                                    nelems == 1)

    def put(self, array: SharedArray, index: int, values,
            nelems: Optional[int] = None):
        """Locally-complete write (relaxed); order with fence/barrier."""
        yield from self.runtime.ops.put(self, array, index, values, nelems)

    def put_strict(self, array: SharedArray, index: int, values,
                   nelems: Optional[int] = None):
        """A *strict* write: blocks until the value is applied at the
        target and acknowledged.  Without the address cache the target
        CPU must service the request (on GM: once somebody polls), so
        strict remote puts feel the full progress pathology — the
        "abnormally large ... PUT access times" of the Field trace
        (section 4.6).  With a cache hit the RDMA PUT needs no target
        CPU at all.
        """
        rt = self.runtime
        applied = yield from rt.ops.put(self, array, index, values, nelems)
        if applied is not None and not applied.processed:
            self.node.progress.enter_runtime()
            try:
                yield applied
            finally:
                self.node.progress.leave_runtime()
        if applied is not None:
            # Completion acknowledgement back to the initiator.
            owner_node = array.owner_node(index)
            yield (rt.cluster.topology.latency(owner_node, self.node.id)
                   + rt.cluster.params.o_recv_us)

    def get_nb(self, array: SharedArray, index: int, nelems: int = 1):
        """Split-phase (non-blocking) GET: returns a handle event
        immediately; several may be in flight, overlapping their
        round trips (the split-phase style GASNet-era runtimes use).
        The event's value is the fetched data; synchronize with
        :meth:`wait_all` or by yielding the handle."""
        proc = self.runtime.sim.process(
            self.runtime.ops.get(self, array, index, nelems),
            name=f"get_nb[t{self.id}]")
        return proc

    def wait_all(self, handles):
        """Block until every split-phase handle completed; returns
        their values in order (for GETs: the fetched arrays)."""
        handles = list(handles)
        if not handles:
            return []
        result = yield AllOf(self.runtime.sim, handles)
        return result

    def gather(self, array: SharedArray, indices, width: int = 8,
               nelems: int = 1):
        """Fetch ``array[i : i+nelems]`` for every ``i`` in ``indices``
        with up to ``width`` transfers in flight.  Returns the values
        in input order.

        Contract: with ``nelems == 1`` (the default) each entry is a
        NumPy *scalar*; with ``nelems > 1`` each entry is the fetched
        array.  The bulk engine's window refills on every completion (a
        sliding window) and adjacent same-destination reads coalesce
        into single wire messages.
        """
        vals = yield from self.runtime.bulk.get_spans(
            self, array, [(i, nelems) for i in indices], window=width)
        return [v[0] for v in vals] if nelems == 1 else vals

    def memget(self, array: SharedArray, index: int, nelems: int):
        """``upc_memget``-style bulk read of a contiguous span, split
        into one transfer per owning block; through the bulk engine
        those are coalesced per destination node and pipelined under a
        bounded in-flight window (window 1 with coalescing off: one
        blocking round trip per block, in order)."""
        return self.runtime.bulk._transfer(self, array, [(index, nelems)],
                                           None, None, single=True)

    def memput(self, array: SharedArray, index: int, values):
        """``upc_memput``-style bulk write (split per affine block,
        coalesced + pipelined by the bulk engine; locally complete on
        return, ordered by fence/barrier either way)."""
        return self.runtime.bulk.put_spans(self, array, [(index, values)])

    def memget_v(self, array: SharedArray, spans):
        """Vectored bulk read: fetch every ``(index, nelems)`` span in
        one engine pass, so segments of *different* spans bound for the
        same node coalesce (e.g. the rows of one remote tile become a
        single wire message).  Returns one array per span, in order."""
        return self.runtime.bulk.get_spans(self, array, list(spans))

    def memput_v(self, array: SharedArray, puts):
        """Vectored bulk write of ``(index, values)`` pairs — the PUT
        mirror of :meth:`memget_v` (relaxed; order with fence)."""
        return self.runtime.bulk.put_spans(self, array, list(puts))

    def track_put(self, remote_applied: Event) -> None:
        """Called by the op engine for every non-local put issued."""
        self._outstanding_puts.append(remote_applied)

    def fence(self):
        """``upc_fence``: wait until all this thread's outstanding puts
        are applied at their targets.  Raises the failure of a put the
        fabric gave up on, whether it failed before the fence or
        while the fence waits."""
        pending = [ev for ev in self._outstanding_puts
                   if not (ev.processed and ev.ok)]
        self._outstanding_puts.clear()
        if pending:
            yield from self._in_runtime(self._await_all(pending))

    def _await_all(self, events):
        yield AllOf(self.runtime.sim, events)

    # -- synchronization -----------------------------------------------------

    def barrier(self):
        """``upc_barrier``: fence + global barrier."""
        op_id = self._span_begin("barrier")
        yield from self.fence()
        yield from self._in_runtime(
            self.runtime.barrier_mgr.wait(self))
        self._span_end(op_id)

    def barrier_notify(self):
        """``upc_notify``: split-phase barrier arrival.  Returns
        immediately; compute freely, then :meth:`barrier_wait`."""
        yield from self.fence()
        yield from self._in_runtime(
            self.runtime.barrier_mgr.notify(self))

    def barrier_wait(self):
        """``upc_wait``: completes the split-phase barrier."""
        yield from self._in_runtime(
            self.runtime.barrier_mgr.phase_wait(self))

    def lock(self, lck: SharedLock):
        """``upc_lock``: AM round trip to the home node + queueing."""
        rt = self.runtime
        op_id = self._span_begin("lock")
        progress = self.node.progress
        progress.enter_runtime()    # as _in_runtime, a frame less deep
        try:
            if lck.owner_node != self.node.id:
                yield from rt.cluster.transport.default_get(
                    self.node, rt.cluster.node(lck.owner_node),
                    rt.cluster.params.ctrl_bytes,
                    lambda n: (rt.cluster.params.svd_lookup_us, None, 0),
                    op_id=op_id)
            else:
                yield rt.cluster.params.shm_access_us
            if not lck._res.acquire_now():
                yield lck._res
            lck._grant(self.id)
            rt.metrics.lock_acquires += 1
        finally:
            progress.leave_runtime()
        self._span_end(op_id)

    def unlock(self, lck: SharedLock):
        """``upc_unlock``: release travels back to the home node."""
        rt = self.runtime
        progress = self.node.progress
        progress.enter_runtime()
        try:
            if lck.owner_node != self.node.id:
                yield rt.cluster.params.o_send_us
                yield rt.cluster.topology.latency(self.node.id,
                                                  lck.owner_node)
            else:
                yield rt.cluster.params.shm_access_us
            lck._release(self.id)
            lck._res.release()
        finally:
            progress.leave_runtime()

    # -- computation ------------------------------------------------------------

    def compute(self, usec: float):
        """Model local computation for ``usec``.

        Crucially this does *not* poll the network: on GM transports,
        AM requests arriving at this node during the slice wait (the
        Field stressmark effect, section 4.6).
        """
        if not 0 <= usec < math.inf:    # NaN fails both tests
            raise UPCRuntimeError(
                f"compute time must be finite and >= 0, got {usec}")
        self.runtime.metrics.compute_time_us += usec
        if usec > 0:
            op_id = (self._span_begin("compute")
                     if self.runtime.events.enabled else -1)
            yield usec
            if op_id >= 0:
                self._span_end(op_id, usec=usec)

    def poll(self):
        """An explicit runtime tick (``upc_poll``-alike): lets queued
        handlers run on polling transports."""
        self.node.progress.poll()
        yield 0.1

    # -- iteration ------------------------------------------------------------

    def forall(self, stop: int, array: Optional[SharedArray] = None,
               start: int = 0, step: int = 1):
        """``upc_forall``-style affinity-driven iteration.

        Yields the indices in ``range(start, stop, step)`` whose
        affinity matches this thread: with ``array`` given, indices
        whose owning thread is this one (``upc_forall(...; &a[i])``);
        without, round-robin by index (``upc_forall(...; i)``).

        This is a plain generator of ints (no virtual time passes);
        the loop body does the timed work::

            for i in th.forall(arr.nelems, arr):
                v = yield from th.get(arr, i)   # always local here
        """
        for i in range(start, stop, step):
            if array is None:
                if i % self.nthreads == self.id:
                    yield i
            elif array.owner_thread(i) == self.id:
                yield i

    # -- allocation (delegates to the runtime) ------------------------------------

    def all_alloc(self, nelems: int, blocksize: Optional[int] = None,
                  dtype="u8"):
        """``upc_all_alloc``: collective allocation in the ALL partition."""
        return self.runtime.all_alloc(self, nelems, blocksize, dtype)

    def global_alloc(self, nelems: int, blocksize: Optional[int] = None,
                     dtype="u8"):
        """``upc_global_alloc``: one thread allocates a distributed
        array; others learn of it via SVD notifications."""
        return self.runtime.global_alloc(self, nelems, blocksize, dtype)

    def all_alloc_matrix(self, rows: int, cols: int, tile_r: int,
                         tile_c: int, dtype="f8"):
        """Collective allocation of a multiblocked (2-D tiled) array."""
        return self.runtime.all_alloc_matrix(self, rows, cols, tile_r,
                                             tile_c, dtype)

    def get_rc(self, matrix, r: int, c: int):
        """Read matrix element (r, c)."""
        return self.get(matrix, matrix.linear(r, c))

    def put_rc(self, matrix, r: int, c: int, value):
        """Write matrix element (r, c) (relaxed)."""
        yield from self.put(matrix, matrix.linear(r, c), value)

    def memget_row(self, matrix, r: int, c0: int, nelems: int):
        """Bulk-read a row segment inside one tile (zero-copy shaped
        like the dense row)."""
        start, count = matrix.row_segment(r, c0, nelems)
        return self.memget(matrix, start, count)

    def local_alloc(self, nelems: int, dtype="u8"):
        """``upc_alloc``: shared memory with affinity entirely here."""
        return self.runtime.local_alloc(self, nelems, dtype)

    def all_free(self, array: SharedArray):
        """Collective free with eager remote-cache invalidation."""
        yield from self.runtime.all_free(self, array)

    # -- value collectives ---------------------------------------------------

    def all_reduce(self, value, op=None):
        """``upc_all_reduce``-style: everyone contributes, everyone
        receives the reduction (default op: sum)."""
        rt = self.runtime
        tag = rt._next_collective_tag(self.id)
        self.node.progress.enter_runtime()
        try:
            result = yield from rt.reducer.all_reduce(self, tag, value, op)
        finally:
            self.node.progress.leave_runtime()
        return result

    def all_broadcast(self, value=None):
        """Thread 0's ``value`` is returned on every thread."""
        rt = self.runtime
        tag = rt._next_collective_tag(self.id)
        self.node.progress.enter_runtime()
        try:
            result = yield from rt.broadcaster.bcast(self, tag, value)
        finally:
            self.node.progress.leave_runtime()
        return result
