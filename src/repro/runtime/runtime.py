"""The XLUPC runtime: threads, directory, caches, allocation, runs.

A :class:`Runtime` wires together every substrate:

* a :class:`~repro.network.cluster.Cluster` (nodes, topology,
  transport) built from :class:`~repro.network.params.MachineParams`;
* one :class:`~repro.runtime.svd.SVDReplica` per node (section 2.1);
* one :class:`~repro.core.address_cache.RemoteAddressCache` and one
  :class:`~repro.core.pinned_table.PinnedAddressTable` per node
  (section 3);
* the :class:`~repro.runtime.ops.OpEngine`, barrier manager and
  thread objects.

Quickstart::

    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(1024, blocksize=64, dtype="u8")
        v = yield from th.get(arr, (th.id * 131) % 1024)
        yield from th.barrier()

    rt.spawn(kernel)
    result = rt.run()
    print(result.elapsed_us, result.cache_stats.hit_rate)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.address_cache import (
    DEFAULT_CAPACITY,
    EvictionPolicy,
    RemoteAddressCache,
)
from repro.core.piggyback import PiggybackMode
from repro.core.pinned_table import PinnedAddressTable
from repro.core.policy import DEFAULT_CHUNK_BYTES, PinningPolicy
from repro.core.stats import CacheStats
from repro.network.cluster import Cluster
from repro.network.params import MachineParams
from repro.runtime.bulk import BulkEngine
from repro.runtime.collectives import BarrierManager, Broadcaster, Reducer
from repro.runtime.errors import UPCRuntimeError
from repro.runtime.handle import ALL_PARTITION
from repro.runtime.layout import BlockCyclicLayout
from repro.runtime.metrics import RunResult, RuntimeMetrics
from repro.runtime.ops import OpEngine
from repro.runtime.shared_array import SharedArray
from repro.runtime.shared_lock import SharedLock
from repro.runtime.shared_scalar import SharedScalar
from repro.runtime.svd import (
    ControlBlock,
    HandleAllocator,
    KIND_ARRAY,
    KIND_LOCK,
    KIND_SCALAR,
    SVDReplica,
)
from repro.runtime.thread import UPCThread
from repro.sim import Process, SimulationError, Simulator


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that defines one experiment configuration."""

    machine: MachineParams
    nthreads: int
    #: UPC threads per node; default from the machine (hybrid mode).
    threads_per_node: Optional[int] = None
    #: The paper's on/off switch: False reproduces the "without
    #: cache" baselines of every figure.
    cache_enabled: bool = True
    #: Section 4.5: "a fixed limit of 100 entries" by default.
    cache_capacity: int = DEFAULT_CAPACITY
    cache_policy: EvictionPolicy = EvictionPolicy.LRU
    pinning_policy: PinningPolicy = PinningPolicy.PIN_EVERYTHING
    pin_chunk_bytes: int = DEFAULT_CHUNK_BYTES
    piggyback: PiggybackMode = PiggybackMode.ON_DATA
    #: None = platform default (GM: RDMA PUTs on; LAPI: off, 4.3).
    use_rdma_put: Optional[bool] = None
    #: Max in-flight wire messages per bulk operation (sliding window
    #: with completion-driven refill; 1 = strictly serial issue, which
    #: with coalescing off is the serial one-round-trip-per-block path).
    bulk_max_inflight: int = 8
    #: Coalesce arena-contiguous same-destination segments into single
    #: wire messages up to this many bytes (0 disables coalescing; a
    #: single segment is never split, whatever its size).
    bulk_max_coalesce_bytes: int = 64 * 1024
    seed: int = 0
    #: Optional flight recorder (an :class:`repro.obs.EventLog`); when
    #: None a disabled log is used and recording costs one branch per
    #: instrumentation site (see :mod:`repro.obs`).
    events: Optional[object] = None
    #: Optional deterministic fault plan (a
    #: :class:`repro.faults.FaultPlan`).  None — or an *empty* plan —
    #: installs no injector, and the run is bit-identical to a build
    #: without the fault plane (see docs/FAULTS.md).
    fault_plan: Optional[object] = None
    #: Reliability knobs (a :class:`repro.faults.ReliabilityConfig`);
    #: None keeps the transport's defaults.  Only consulted when
    #: messages can actually be lost, but configurable independently
    #: so tests can tighten timeouts.
    reliability: Optional[object] = None
    #: Optional repair policy name (one of
    #: :data:`repro.faults.POLICIES`); None = static fabric.  Builds a
    #: :class:`repro.faults.PolicyEngine` over the run's per-link
    #: :class:`repro.faults.HealthTracker` and wires it into the
    #: transport and injector.  Needs a non-empty ``fault_plan``.
    repair_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.nthreads < 1:
            raise UPCRuntimeError(f"nthreads must be >= 1, got {self.nthreads}")
        tpn = self.threads_per_node
        if tpn is not None and tpn < 1:
            raise UPCRuntimeError(f"threads_per_node must be >= 1, got {tpn}")
        if self.bulk_max_inflight < 1:
            raise UPCRuntimeError(
                f"bulk_max_inflight must be >= 1, got "
                f"{self.bulk_max_inflight}")
        if self.bulk_max_coalesce_bytes < 0:
            raise UPCRuntimeError(
                f"bulk_max_coalesce_bytes must be >= 0, got "
                f"{self.bulk_max_coalesce_bytes}")

    @property
    def effective_threads_per_node(self) -> int:
        return self.threads_per_node or self.machine.default_threads_per_node

    @property
    def nnodes(self) -> int:
        tpn = self.effective_threads_per_node
        return -(-self.nthreads // tpn)


class _UPCMain(Process):
    """A UPC thread's kernel, parked in ``upc_exit`` as it returns."""

    __slots__ = ("progress", "ended")

    def _exit(self, err: BaseException) -> None:
        self.ended = self.sim.now
        if isinstance(err, StopIteration):
            self.progress.enter_runtime()
        super()._exit(err)


class Runtime:
    """A running XLUPC instance on a simulated cluster."""

    def __init__(self, config: RuntimeConfig,
                 sim: Optional[Simulator] = None) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.cluster = Cluster(self.sim, config.machine, config.nnodes)
        self.nthreads = config.nthreads
        self._tpn = config.effective_threads_per_node

        # Flight recorder: a disabled EventLog when not requested, so
        # instrumentation sites can always write `if events.enabled:`.
        if config.events is not None:
            self.events = config.events
        else:
            from repro.obs.events import EventLog
            self.events = EventLog(enabled=False)

        # Per-node runtime structures.
        self._svd: Dict[int, SVDReplica] = {}
        self._caches: Dict[int, RemoteAddressCache] = {}
        #: ``svd(node_id)``, ``addr_cache(node_id)``: the node's
        #: structures, read by a C-level lookup.
        self.svd = self._svd.__getitem__
        self.addr_cache = self._caches.__getitem__
        for node in self.cluster.nodes:
            self._svd[node.id] = SVDReplica(node.id, config.nthreads)
            self._caches[node.id] = RemoteAddressCache(
                capacity=config.cache_capacity,
                policy=config.cache_policy,
                lookup_cost_us=config.machine.transport.cache_lookup_us,
                insert_cost_us=config.machine.transport.cache_insert_us,
                seed=config.seed + node.id,
                # A fabric without one-sided operations (e.g. the
                # TCP/IP sockets transport) gives the cache nothing to
                # unlock; the runtime never consults it there.
                enabled=(config.cache_enabled
                         and config.machine.transport.supports_rdma),
            )
            # Observability hookup (attribute injection keeps the core
            # data structures constructible without a runtime).
            for obj in (self._caches[node.id], node.pins):
                obj.events = self.events
                obj.clock = self.sim
                obj.node_id = node.id
            node.progress.events = self.events
        self.cluster.transport.events = self.events

        self.handles = HandleAllocator(config.nthreads)
        self.metrics = RuntimeMetrics()
        # Progress engines report backlog peaks into the run metrics
        # (see PollingProgress.enqueue / metrics.max_backlog).
        for node in self.cluster.nodes:
            node.progress.metrics = self.metrics

        # Fault plane + reliability layer.  An absent or *empty* plan
        # installs nothing — transport.faults stays None and every
        # hot-path site short-circuits on that, keeping fault-free
        # runs bit-identical to the pre-fault build.
        self.faults = None
        self.policy = None
        plan = config.fault_plan
        if plan is not None and not plan.empty:
            from repro.faults.health import HealthTracker
            from repro.faults.injector import FaultInjector
            from repro.faults.policy import PolicyConfig, PolicyEngine
            # The run's one per-link ledger: the fault summary reads
            # its totals, a repair policy its closed windows.
            pcfg = PolicyConfig()
            health = self.metrics.health = HealthTracker(pcfg.window_us)
            if config.repair_policy is not None:
                self.policy = PolicyEngine(
                    config.repair_policy, pcfg, health,
                    nnodes=self.cluster.nnodes,
                    on_decision=self._on_policy_decision)
            self.faults = FaultInjector(plan, self.sim,
                                        events=self.events,
                                        metrics=self.metrics,
                                        policy=self.policy,
                                        health=health)
            self.cluster.transport.faults = self.faults
            self.cluster.transport.health = health
            self.cluster.transport.policy = self.policy
            for node in self.cluster.nodes:
                node.progress.faults = self.faults
        elif config.repair_policy is not None:
            raise UPCRuntimeError(
                "repair_policy needs a non-empty fault_plan to observe")
        self.cluster.transport.metrics = self.metrics
        if config.reliability is not None:
            from repro.faults.reliability import DedupLedger
            self.cluster.transport.reliability = config.reliability
            self.cluster.transport.ledger = DedupLedger(
                config.reliability.ledger_capacity)
        self.ops = OpEngine(self)
        self.bulk = BulkEngine(self)
        self.barrier_mgr = BarrierManager(self)
        self.broadcaster = Broadcaster(self)
        self.reducer = Reducer(self)
        self.threads: List[UPCThread] = [
            UPCThread(self, t, self.node_of_thread(t))
            for t in range(config.nthreads)
        ]
        self._programs: List = []
        #: Completion events of the one-way SVD notifications issued by
        #: ``global_alloc``; nobody waits on them, so :meth:`run` checks
        #: them for a spent retry budget.
        self._notifications: List = []
        #: Per-thread collective sequence numbers: every thread runs
        #: the same sequence of collectives, so call #k on thread A
        #: pairs with call #k on thread B.
        self._collective_seq: Dict[int, int] = {}

    def _on_policy_decision(self, decision: Dict) -> None:
        """Repair-policy actuation hook: count it and put it on the
        flight-recorder timeline (feeds the SLO/anomaly windows)."""
        from repro.faults.policy import emit_policy_action
        self.metrics.policy_actions += 1
        emit_policy_action(self.events, self.sim.now, decision)

    def pinned_table(self, node_id: int) -> PinnedAddressTable:
        """Node ``node_id``'s pinned address table, ``node.pins``: the
        one registry of its pinned memory, pin-down cache included."""
        return self.cluster.node(node_id).pins

    # -- thread <-> node mapping -------------------------------------------

    def node_of_thread(self, thread_id: int) -> int:
        """Hybrid mapping: consecutive blocks of threads per node."""
        if not 0 <= thread_id < self.nthreads:
            raise UPCRuntimeError(f"thread {thread_id} out of range")
        return thread_id // self._tpn

    # -- allocation ----------------------------------------------------------

    def _make_layout(self, nelems: int, blocksize: Optional[int],
                     dtype) -> BlockCyclicLayout:
        dt = np.dtype(dtype)
        if blocksize is None:
            blocksize = -(-nelems // self.nthreads)  # pure blocked
        return BlockCyclicLayout(nelems=nelems, elem_size=dt.itemsize,
                                 blocksize=blocksize,
                                 nthreads=self.nthreads)

    def _install_everywhere(self, array: SharedArray) -> None:
        """Install the control block in every replica (metadata is
        modelled as instantly consistent; notification *traffic* is
        charged separately by the caller where applicable)."""
        cb = ControlBlock(
            handle=array.handle, kind=KIND_ARRAY,
            total_bytes=array.total_bytes, nelems=array.nelems,
            elem_size=array.elem_size, blocksize=array.layout.blocksize,
        )
        for node in self.cluster.nodes:
            entry = self._svd[node.id].add(
                cb,
                local_base=array.node_base.get(node.id),
                local_bytes=array.node_bytes.get(node.id, 0),
                notified=(array.handle.partition != ALL_PARTITION
                          and self.node_of_thread(
                              max(array.handle.partition, 0)) != node.id),
            )
            _ = entry

    def all_alloc(self, thread: UPCThread, nelems: int,
                  blocksize: Optional[int], dtype):
        """``upc_all_alloc``: collective, lands in the ALL partition.

        Single-writer rule 2 of section 2.1: the ALL partition is only
        updated inside an already-synchronized collective, so no locks
        are needed — modelled by thread 0 constructing after a barrier.
        """
        tag = self._next_collective_tag(thread.id)

        def build():
            layout = self._make_layout(nelems, blocksize, dtype)
            handle = self.handles.fresh(ALL_PARTITION)
            array = SharedArray(self, handle, layout, np.dtype(dtype))
            self._install_everywhere(array)
            self.metrics.allocations += 1
            return array

        if thread.id == 0:
            value = build()
        else:
            value = None
        yield self.cluster.params.o_sw_us
        array = yield from self.broadcaster.bcast(thread, tag, value)
        return array

    def global_alloc(self, thread: UPCThread, nelems: int,
                     blocksize: Optional[int], dtype):
        """``upc_global_alloc``: non-collective distributed allocation.

        Rule 1 of section 2.1: the thread updates its own partition and
        *notifies* the other nodes (one-way control messages, charged
        on the wire but processed asynchronously).
        """
        layout = self._make_layout(nelems, blocksize, dtype)
        handle = self.handles.fresh(thread.id)
        array = SharedArray(self, handle, layout, np.dtype(dtype))
        self._install_everywhere(array)
        self.metrics.allocations += 1
        # Allocation bookkeeping + notification injection costs.
        p = self.cluster.params
        yield p.o_sw_us
        for node in self.cluster.nodes:
            if node.id != thread.node.id:
                self._notifications.append(
                    self.cluster.transport.am_oneway(thread.node, node,
                                                     p.ctrl_bytes))
                yield p.o_send_us * 0.25
        return array

    def all_alloc_matrix(self, thread: UPCThread, rows: int, cols: int,
                         tile_r: int, tile_c: int, dtype):
        """Collective allocation of a multiblocked 2-D array
        (section 2.1's "multi-blocked array [7]")."""
        from repro.runtime.shared_matrix import SharedMatrix

        tag = self._next_collective_tag(thread.id)

        def build():
            handle = self.handles.fresh(ALL_PARTITION)
            matrix = SharedMatrix(self, handle, rows, cols, tile_r,
                                  tile_c, np.dtype(dtype))
            self._install_everywhere(matrix)
            self.metrics.allocations += 1
            return matrix

        value = build() if thread.id == 0 else None
        yield self.cluster.params.o_sw_us
        matrix = yield from self.broadcaster.bcast(thread, tag, value)
        return matrix

    def local_alloc(self, thread: UPCThread, nelems: int, dtype):
        """``upc_alloc``: affinity entirely to the calling thread."""
        dt = np.dtype(dtype)
        layout = BlockCyclicLayout(nelems=nelems, elem_size=dt.itemsize,
                                   blocksize=nelems, nthreads=1)
        handle = self.handles.fresh(thread.id)
        array = SharedArray(self, handle, layout, dt, owner=thread.id)
        self._install_everywhere(array)
        self.metrics.allocations += 1
        yield self.cluster.params.o_sw_us
        return array

    def all_free(self, thread: UPCThread, array: SharedArray):
        """Collective free: unpin + **eager invalidation** of every
        remote address cache (section 3.1).

        Ordering matters: every thread first drains its outstanding
        puts (fence) and all threads synchronize *before* the
        directory entries and arenas are torn down — otherwise an
        in-flight put tail could hit a removed SVD entry.
        """
        tag = self._next_collective_tag(thread.id)

        def teardown():
            for node in self.cluster.nodes:
                nid = node.id
                # The returned deregistration cost is not charged.
                node.pins.free(array.handle, array.node_base.get(nid, 0),
                               array.node_bytes.get(nid, 0))
                self._caches[node.id].invalidate_handle(array.handle)
                self._svd[node.id].remove(array.handle)
            array.free_arenas()
            self.metrics.frees += 1
            return True

        yield self.cluster.params.o_sw_us
        yield from thread.fence()
        # Quiesce barrier: polls while waiting so other threads'
        # in-flight put handlers can still be serviced here.
        thread.node.progress.enter_runtime()
        try:
            yield from self.barrier_mgr.wait(thread)
        finally:
            thread.node.progress.leave_runtime()
        value = teardown() if thread.id == 0 else None
        yield from self.broadcaster.bcast(thread, tag, value)

    def alloc_scalar(self, owner_thread: int, dtype="f8") -> SharedScalar:
        """Statically-allocated shared scalar (no clock cost: happens
        before the program runs, like compile-time allocation)."""
        handle = self.handles.fresh(ALL_PARTITION)
        scalar = SharedScalar(self, handle, owner_thread, np.dtype(dtype))
        cb = ControlBlock(handle=handle, kind=KIND_SCALAR,
                          total_bytes=scalar.elem_size)
        for node in self.cluster.nodes:
            self._svd[node.id].add(
                cb,
                local_base=scalar.vaddr if node.id == scalar.home_node
                else None,
                local_bytes=scalar.elem_size
                if node.id == scalar.home_node else 0)
        return scalar

    def alloc_lock(self, owner_thread: int = 0) -> SharedLock:
        """Statically-allocated upc_lock_t."""
        handle = self.handles.fresh(ALL_PARTITION)
        lock = SharedLock(self, handle, owner_thread)
        cb = ControlBlock(handle=handle, kind=KIND_LOCK, total_bytes=0)
        for node in self.cluster.nodes:
            self._svd[node.id].add(cb)
        return lock

    def _next_collective_tag(self, thread_id: int) -> int:
        seq = self._collective_seq.get(thread_id, 0) + 1
        self._collective_seq[thread_id] = seq
        return seq

    # -- program execution ---------------------------------------------------

    def spawn(self, program: Callable, *args) -> List:
        """Launch ``program(thread, *args)`` on every UPC thread.

        A finished thread parks in ``upc_exit``: it registers a
        permanent poller on its node so in-flight AMs targeting that
        node still get service (the implicit exit barrier of real
        runtimes).  Without this, a kernel whose last op is not a
        barrier deadlocks any remote thread still reading its data.
        """
        procs = []
        for th in self.threads:
            gen = program(th, *args)
            if not hasattr(gen, "send"):
                raise SimulationError(f"spawn: program must be a generator "
                                      f"function, {program!r} gave {gen!r}")
            proc = _UPCMain(self.sim, gen, f"upc{th.id}")
            proc.progress = th.node.progress
            procs.append(proc)
        self._programs.extend(procs)
        return procs

    def run(self) -> RunResult:
        """Run to completion and collect results."""
        if not self._programs:
            raise UPCRuntimeError("run() before spawn() — nothing to do")
        self.sim.run()
        # Surface crashes first: a crashed thread usually deadlocks the
        # others, and the crash is the interesting diagnosis.
        for proc in self._programs:
            if proc.triggered and not proc.ok:
                raise proc.exception
        # A notification that exhausted its retries left a replica
        # stale: fail the run rather than return a normal result.
        for note in self._notifications:
            if note.triggered and not note.ok:
                raise note.exception
        # So does a put that failed after its thread's last fence: the
        # end of the program is the fence that reports it.
        for th in self.threads:
            for applied in th._outstanding_puts:
                if applied.triggered and not applied.ok:
                    raise applied.exception
        for proc in self._programs:
            if not proc.triggered:
                raise UPCRuntimeError(
                    f"deadlock: {proc.name} never finished "
                    f"(t={self.sim.now:.1f})")
        elapsed = max(proc.ended for proc in self._programs)
        return RunResult(
            elapsed_us=elapsed,
            metrics=self.metrics,
            cache_stats=self.aggregate_cache_stats(),
            sim_events=self.sim.events_processed,
        )

    def aggregate_cache_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._caches.values():
            total.merge(cache.stats)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Runtime {self.config.machine.name} "
                f"threads={self.nthreads} nodes={self.cluster.nnodes} "
                f"cache={'on' if self.config.cache_enabled else 'off'}>")
