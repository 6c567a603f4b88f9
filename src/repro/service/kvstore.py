"""A distributed hash table over PGAS shared memory.

The store's buckets live in one block-cyclic :class:`SharedArray`, so
every bucket has a *home* determined by ordinary UPC layout arithmetic
and remote buckets are reachable by the same one-sided machinery as
any shared array.  Two access paths serve the same bucket layout —
selectable per store, which is exactly the Storm / "RDMA vs. RPC for
Implementing Distributed Data Structures" comparison:

``onesided``
    GET: ``memget`` the bucket span and scan locally (RDMA when the
    address cache hits).  UPDATE: lock-RMW under a striped
    ``upc_lock_t`` — lock, read the bucket, write one slot, fence,
    unlock.  MULTI-GET: one vectored ``memget_v`` over the distinct
    bucket spans, so the bulk engine coalesces buckets that share a
    home node into single wire messages.

``rpc``
    Every op is one AM round trip to the bucket's home node; the
    handler scans/mutates the bucket in place and the reply carries
    the result.  Under fault plans the transport's dedup ledger makes
    handler execution exactly-once, so RPC mutations survive
    retransmits.  Requires buckets not to straddle affinity
    boundaries (``blocksize`` a multiple of the bucket span).

Bucket layout: ``slots_per_bucket`` slots of two cells each —
``[key_enc, value]`` with ``key_enc == 0`` meaning *empty* and
``key_enc == key + 1`` otherwise.  Deletion writes the empty sentinel
back (the slot is immediately reusable).  Slot choice is a
deterministic scan (matching key first, else first empty slot), so
both access paths produce byte-identical bucket images for the same
operation history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.obs.events import KV_DEL, KV_GET, KV_MGET, KV_PUT
from repro.runtime.errors import UPCRuntimeError
from repro.runtime.shared_array import SharedArray
from repro.runtime.shared_lock import SharedLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.thread import UPCThread

#: Sentinel returned by :meth:`KVStore.get` for absent keys.
KV_MISSING = -1

#: Key-cell encoding for an empty slot.
_EMPTY = 0

#: The two access paths a store can be built with.
ACCESS_PATHS = ("onesided", "rpc")

#: RPC reply sentinel for a full bucket (handlers must not raise: they
#: run inside the transport's service loop).
_RPC_FULL = "__kv_full__"

#: Modeled per-slot scan cost inside an RPC handler (µs).
_SCAN_US_PER_SLOT = 0.02


class KVStoreError(UPCRuntimeError):
    """Misuse of the store API (bad key/value, bad configuration)."""


class KVFullError(KVStoreError):
    """PUT into a bucket whose every slot holds a *different* key."""


def bucket_of(key: int, nbuckets: int) -> int:
    """The bucket serving ``key``.

    Identity-mod hashing keeps the mapping transparent to the test
    oracle and the test-side sharded skeleton
    (``tests/sim/shard_referees.py``; both recompute it independently);
    key universes in tests are chosen to collide anyway.
    """
    return key % nbuckets


def _check_key(key) -> int:
    key = int(key)
    if not 0 <= key < (1 << 62):
        raise KVStoreError(f"key out of range: {key}")
    return key


def _check_value(value) -> int:
    value = int(value)
    if not 0 <= value < (1 << 62):
        raise KVStoreError(f"value out of range: {value}")
    return value


def _scan_get(cells: np.ndarray, key: int) -> int:
    """Value for ``key`` in a bucket image, or :data:`KV_MISSING`."""
    enc = key + 1
    for slot in range(len(cells) // 2):
        if int(cells[2 * slot]) == enc:
            return int(cells[2 * slot + 1])
    return KV_MISSING


def _scan_depth(cells: np.ndarray, key: int) -> int:
    """Slots a GET scan touches before resolving ``key`` (full bucket
    on a miss).  Observability-only: callers invoke it solely under an
    ``op_id >= 0`` guard, so disabled runs never pay the extra scan."""
    enc = key + 1
    nslots = len(cells) // 2
    for slot in range(nslots):
        if int(cells[2 * slot]) == enc:
            return slot + 1
    return nslots


def _scan_slot(cells: np.ndarray, key: int) -> int:
    """Slot index a PUT of ``key`` must write: the slot already
    holding ``key`` if any, else the first empty slot, else ``-1``."""
    enc = key + 1
    empty = -1
    for slot in range(len(cells) // 2):
        k = int(cells[2 * slot])
        if k == enc:
            return slot
        if k == _EMPTY and empty < 0:
            empty = slot
    return empty


class KVStore:
    """One distributed hash table (see module docstring).

    The wrapper itself is stateless beyond configuration: every UPC
    thread may share one instance (or hold equivalent wrappers around
    the same backing array).  All data-moving methods are generator
    coroutines taking the calling :class:`UPCThread` first.
    """

    def __init__(self, runtime, array: SharedArray, nbuckets: int,
                 slots_per_bucket: int,
                 locks: Optional[Sequence[SharedLock]] = None,
                 access: str = "onesided") -> None:
        if access not in ACCESS_PATHS:
            raise KVStoreError(f"unknown access path {access!r}")
        if nbuckets <= 0 or slots_per_bucket <= 0:
            raise KVStoreError("nbuckets and slots_per_bucket must be > 0")
        span = 2 * slots_per_bucket
        if array.nelems != nbuckets * span:
            raise KVStoreError(
                f"backing array has {array.nelems} cells, need "
                f"{nbuckets * span} for {nbuckets}x{slots_per_bucket}")
        if access == "rpc" and array.owner is None \
                and array.layout.blocksize % span != 0:
            raise KVStoreError(
                "rpc stores need buckets on single home nodes: "
                f"blocksize {array.layout.blocksize} is not a multiple "
                f"of the bucket span {span}")
        self.runtime = runtime
        self.array = array
        self.nbuckets = nbuckets
        self.slots_per_bucket = slots_per_bucket
        self.span = span
        self.locks = list(locks) if locks else []
        self.access = access

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<KVStore {self.access} buckets={self.nbuckets}"
                f"x{self.slots_per_bucket} arr={self.array.handle}>")

    # -- geometry -----------------------------------------------------

    def bucket_of(self, key: int) -> int:
        return bucket_of(key, self.nbuckets)

    def _base(self, bucket: int) -> int:
        return bucket * self.span

    def home_node(self, bucket: int) -> int:
        """Home node of a bucket's first cell (for ``rpc`` stores the
        whole bucket, by the blocksize precondition)."""
        return self.array.owner_node(self._base(bucket))

    def _lock_for(self, bucket: int) -> Optional[SharedLock]:
        if not self.locks:
            return None
        return self.locks[bucket % len(self.locks)]

    # -- access-path selection ----------------------------------------

    def _path(self, th: "UPCThread", bucket: int) -> str:
        """The access path serving this op: the configured one, except
        that a ``path_failover`` repair policy holding the link to the
        bucket's home in failover mode flips one-sided traffic to RPC
        for the duration (an RPC retry re-issues cheaply; a one-sided
        retry pays RDMA invalidation + re-validation on top)."""
        if self.access == "rpc":
            return "rpc"
        policy = getattr(self.runtime, "policy", None)
        if policy is None:
            return "onesided"
        home = self.home_node(bucket)
        if home != th.node.id and policy.mode_of(
                th.node.id, home, self.runtime.sim.now
        ).mode == "failover":
            self.runtime.metrics.kv_failover_ops += 1
            return "rpc"
        return "onesided"

    def _mget_path(self, th: "UPCThread", keys) -> str:
        """Batched variant: the whole batch fails over if any of its
        home links is in failover mode (homes are visited in sorted
        order, so the check is deterministic)."""
        if self.access == "rpc":
            return "rpc"
        policy = getattr(self.runtime, "policy", None)
        if policy is None:
            return "onesided"
        now = self.runtime.sim.now
        me = th.node.id
        for home in sorted({self.home_node(self.bucket_of(k))
                            for k in keys}):
            if home != me and policy.mode_of(me, home, now).mode \
                    == "failover":
                self.runtime.metrics.kv_failover_ops += 1
                return "rpc"
        return "onesided"

    # -- operations ---------------------------------------------------

    def get(self, th: "UPCThread", key):
        """Look up ``key``; returns the value or :data:`KV_MISSING`."""
        key = _check_key(key)
        op_id = th._span_begin(KV_GET)
        self.runtime.metrics.kv_gets += 1
        if self._path(th, self.bucket_of(key)) == "rpc":
            t0 = self.runtime.sim.now if op_id >= 0 else 0.0
            value = yield from self._rpc(th, "get", (key,))
            if op_id >= 0:
                th._span_end(op_id, key=key, hit=value != KV_MISSING,
                             path="rpc",
                             home=self.home_node(self.bucket_of(key)),
                             am_rtt_us=self.runtime.sim.now - t0)
        else:
            self.runtime.metrics.kv_onesided_ops += 1
            cells = yield from th.memget(self.array,
                                         self._base(self.bucket_of(key)),
                                         self.span)
            value = _scan_get(cells, key)
            if op_id >= 0:
                th._span_end(op_id, key=key, hit=value != KV_MISSING,
                             path="onesided",
                             scan_depth=_scan_depth(cells, key))
        return value

    def put(self, th: "UPCThread", key, value):
        """Insert or update ``key``.

        One-sided path: lock-RMW under the bucket's stripe lock —
        the read and the single-slot write are both one-sided, the
        fence orders the write before the unlock travels.  Raises
        :class:`KVFullError` when the bucket has no slot for a new
        key (existing keys always update in place).
        """
        key = _check_key(key)
        value = _check_value(value)
        op_id = th._span_begin(KV_PUT)
        self.runtime.metrics.kv_puts += 1
        if self._path(th, self.bucket_of(key)) == "rpc":
            t0 = self.runtime.sim.now if op_id >= 0 else 0.0
            yield from self._rpc(th, "put", (key, value))
            if op_id >= 0:
                th._span_end(op_id, key=key, path="rpc",
                             home=self.home_node(self.bucket_of(key)),
                             am_rtt_us=self.runtime.sim.now - t0)
        else:
            self.runtime.metrics.kv_onesided_ops += 1
            bucket = self.bucket_of(key)
            base = self._base(bucket)
            lck = self._lock_for(bucket)
            if lck is not None:
                yield from th.lock(lck)
            t_lock = self.runtime.sim.now if op_id >= 0 else 0.0
            try:
                cells = yield from th.memget(self.array, base, self.span)
                slot = _scan_slot(cells, key)
                if slot < 0:
                    raise KVFullError(
                        f"bucket {bucket} full "
                        f"({self.slots_per_bucket} slots), key {key}")
                yield from th.memput(
                    self.array, base + 2 * slot,
                    np.array([key + 1, value], dtype=self.array.dtype))
                yield from th.fence()
            finally:
                if lck is not None:
                    yield from th.unlock(lck)
            if op_id >= 0:
                th._span_end(op_id, key=key, path="onesided",
                             lock_hold_us=(self.runtime.sim.now - t_lock
                                           if lck is not None else 0.0))

    def delete(self, th: "UPCThread", key):
        """Remove ``key``; returns whether it was present."""
        key = _check_key(key)
        op_id = th._span_begin(KV_DEL)
        self.runtime.metrics.kv_dels += 1
        if self._path(th, self.bucket_of(key)) == "rpc":
            t0 = self.runtime.sim.now if op_id >= 0 else 0.0
            found = yield from self._rpc(th, "del", (key,))
            if op_id >= 0:
                th._span_end(op_id, key=key, hit=found, path="rpc",
                             home=self.home_node(self.bucket_of(key)),
                             am_rtt_us=self.runtime.sim.now - t0)
        else:
            self.runtime.metrics.kv_onesided_ops += 1
            bucket = self.bucket_of(key)
            base = self._base(bucket)
            lck = self._lock_for(bucket)
            if lck is not None:
                yield from th.lock(lck)
            t_lock = self.runtime.sim.now if op_id >= 0 else 0.0
            try:
                cells = yield from th.memget(self.array, base, self.span)
                enc = key + 1
                found = False
                for slot in range(self.slots_per_bucket):
                    if int(cells[2 * slot]) == enc:
                        yield from th.memput(
                            self.array, base + 2 * slot,
                            np.array([_EMPTY], dtype=self.array.dtype))
                        yield from th.fence()
                        found = True
                        break
            finally:
                if lck is not None:
                    yield from th.unlock(lck)
            if op_id >= 0:
                th._span_end(op_id, key=key, hit=found, path="onesided",
                             lock_hold_us=(self.runtime.sim.now - t_lock
                                           if lck is not None else 0.0))
        return bool(found)

    def multi_get(self, th: "UPCThread", keys):
        """Batched lookup; returns values in input-key order.

        One-sided path: one vectored ``memget_v`` over the distinct
        bucket spans — the bulk engine coalesces same-home buckets
        into single wire messages and pipelines across homes.  RPC
        path: one batched AM round trip per distinct home node.
        """
        keys = [_check_key(k) for k in keys]
        op_id = th._span_begin(KV_MGET)
        self.runtime.metrics.kv_mgets += 1
        if not keys:
            th._span_end(op_id, nkeys=0)
            return []
        if self._mget_path(th, keys) == "rpc":
            t0 = self.runtime.sim.now if op_id >= 0 else 0.0
            values = yield from self._rpc_mget(th, keys)
            if op_id >= 0:
                homes = sorted({self.home_node(self.bucket_of(k))
                                for k in keys})
                th._span_end(op_id, nkeys=len(keys), path="rpc",
                             nhomes=len(homes),
                             am_rtt_us=self.runtime.sim.now - t0)
        else:
            self.runtime.metrics.kv_onesided_ops += 1
            buckets = sorted({self.bucket_of(k) for k in keys})
            spans = [(self._base(b), self.span) for b in buckets]
            images = yield from th.memget_v(self.array, spans)
            table = dict(zip(buckets, images))
            values = [_scan_get(table[self.bucket_of(k)], k)
                      for k in keys]
            if op_id >= 0:
                th._span_end(op_id, nkeys=len(keys), path="onesided",
                             nbuckets=len(buckets))
        return values

    # -- the AM/RPC path ----------------------------------------------

    def _apply(self, verb: str, args) -> object:
        """Execute one op against the backing store's data plane —
        the body of the home-node handler (and of the local fast
        path).  Must not raise: error outcomes travel as payloads."""
        arr = self.array
        if verb == "get":
            (key,) = args
            base = self._base(self.bucket_of(key))
            return _scan_get(arr.read(base, self.span), key)
        if verb == "put":
            key, value = args
            base = self._base(self.bucket_of(key))
            cells = arr.read(base, self.span)
            slot = _scan_slot(cells, key)
            if slot < 0:
                return _RPC_FULL
            arr.write(base + 2 * slot,
                      np.array([key + 1, value], dtype=arr.dtype))
            return None
        if verb == "del":
            (key,) = args
            base = self._base(self.bucket_of(key))
            cells = arr.read(base, self.span)
            enc = key + 1
            for slot in range(self.slots_per_bucket):
                if int(cells[2 * slot]) == enc:
                    arr.write(base + 2 * slot,
                              np.array([_EMPTY], dtype=arr.dtype))
                    return True
            return False
        if verb == "mget":
            return [self._apply("get", (k,)) for k in args]
        raise KVStoreError(f"unknown rpc verb {verb!r}")  # pragma: no cover

    def _rpc_round_trip(self, th: "UPCThread", home: int, verb: str,
                        args, nbytes: int):
        """One AM round trip executing ``verb`` at ``home``.

        The handler runs on the home node's handler CPU (after the
        progress engine grants service — the GM polling pathology
        applies to RPC kv ops exactly as to any AM); with fault plans
        active the transport's dedup ledger guarantees the handler
        body runs once even when the request is retransmitted.
        """
        rt = self.runtime
        self.runtime.metrics.kv_rpc_ops += 1
        if home == th.node.id:
            yield rt.cluster.params.shm_access_us
            return self._apply(verb, args)
        p = rt.cluster.params
        cost = p.svd_lookup_us + _SCAN_US_PER_SLOT * self.slots_per_bucket

        def handler(node, _verb=verb, _args=args, _cost=cost):
            return (_cost, self._apply(_verb, _args), 0)

        return (yield from th._in_runtime(rt.cluster.transport.default_get(
            th.node, rt.cluster.node(home), nbytes, handler)))

    def _rpc(self, th: "UPCThread", verb: str, args):
        key = args[0]
        home = self.home_node(self.bucket_of(key))
        nbytes = self.array.elem_size * (2 if verb == "put" else 1)
        result = yield from self._rpc_round_trip(th, home, verb, args,
                                                 nbytes)
        if result == _RPC_FULL:
            raise KVFullError(
                f"bucket {self.bucket_of(key)} full "
                f"({self.slots_per_bucket} slots), key {key}")
        return result

    def _rpc_mget(self, th: "UPCThread", keys: List[int]):
        groups: Dict[int, List[int]] = {}
        for k in keys:
            groups.setdefault(self.home_node(self.bucket_of(k)),
                              []).append(k)
        value_of: Dict[int, int] = {}
        for home in sorted(groups):
            group = groups[home]
            nbytes = self.array.elem_size * len(group)
            values = yield from self._rpc_round_trip(
                th, home, "mget", tuple(group), nbytes)
            value_of.update(zip(group, values))
        return [value_of[k] for k in keys]

    # -- test plane ---------------------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """Decode the backing array into a plain dict (synchronous
        data-plane read — the differential harness's final-state
        view, not a timed operation)."""
        cells = self.array.data
        out: Dict[int, int] = {}
        for bucket in range(self.nbuckets):
            base = self._base(bucket)
            for slot in range(self.slots_per_bucket):
                enc = int(cells[base + 2 * slot])
                if enc != _EMPTY:
                    out[enc - 1] = int(cells[base + 2 * slot + 1])
        return out


def kv_create(th: "UPCThread", nbuckets: int, slots_per_bucket: int = 4,
              access: str = "onesided",
              locks: Optional[Sequence[SharedLock]] = None,
              blocksize: Optional[int] = None):
    """Collectively build a :class:`KVStore` (``upc_all_alloc`` of the
    backing array + a wrapper per thread; every thread must call).

    ``blocksize`` defaults to one bucket per affine block; pass a
    smaller value to make buckets straddle affinity boundaries
    (one-sided stores only — exercises the bulk engine's segment
    splitting on every bucket fetch).
    """
    span = 2 * slots_per_bucket
    if blocksize is None:
        blocksize = span
    arr = yield from th.all_alloc(nbuckets * span, blocksize=blocksize,
                                  dtype="u8")
    return KVStore(th.runtime, arr, nbuckets, slots_per_bucket,
                   locks=locks, access=access)
