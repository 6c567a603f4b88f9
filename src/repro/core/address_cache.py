"""The remote address cache (section 3).

    "The address cache is implemented as a hash table.  Each entry in
    the cache correlates a universal SVD handle and a node identifier
    ID with the physical base address for the shared variable
    identified by the SVD handle on the remote node ID."

Design points taken from the paper:

* a **hit** guarantees `base address + offset` can be computed on the
  initiator, enabling an RDMA transfer;
* a **miss** falls back to the default protocol, which piggybacks the
  base address home, seeding the cache for the next access;
* entries are **eagerly invalidated** when the shared object is
  deallocated (section 3.1), so consistency "is not an issue" as long
  as objects stay pinned until freed;
* the table is "a dynamic hash table.  Its size is allowed to increase
  on demand to a fixed limit of 100 entries" (section 4.5) — we expose
  the capacity (and the eviction policy, for ablations) as knobs.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.core.stats import CacheStats
from repro.util.rng import seeded_rng

#: The paper's default capacity (section 4.5).
DEFAULT_CAPACITY = 100

#: Cache key: (SVD handle, remote node id).  The handle is opaque to
#: this module; anything hashable works.
Key = Tuple[Hashable, int]


class EvictionPolicy(enum.Enum):
    """Victim selection when the table is full (LRU is the default;
    FIFO and RANDOM exist for the ablation study)."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


class RemoteAddressCache:
    """Bounded map ``(handle, node) -> remote base address``.

    Lookup/insert *costs* (µs) are accumulated into :class:`CacheStats`
    and also returned, so the calling op can charge them on the clock.
    """

    __slots__ = ("capacity", "policy", "stats", "_table", "_rng",
                 "lookup_cost_us", "insert_cost_us", "enabled",
                 "_by_handle", "_keys", "_pos",
                 "events", "clock", "node_id")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 policy: EvictionPolicy = EvictionPolicy.LRU,
                 lookup_cost_us: float = 0.15,
                 insert_cost_us: float = 0.25,
                 seed: int = 0,
                 enabled: bool = True) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self.stats = CacheStats()
        self._table: "OrderedDict[Key, int]" = OrderedDict()
        #: Secondary index handle -> keys, so eager invalidation on
        #: free costs O(entries for that handle), not a full-table scan.
        self._by_handle: Dict[Hashable, set] = {}
        #: Dense key list + position map for O(1) swap-remove — RANDOM
        #: eviction draws a victim without materialising the table.  No
        #: other policy reads them, so only a RANDOM cache keeps them.
        self._keys: Optional[list] = (
            [] if policy is EvictionPolicy.RANDOM else None)
        self._pos: Dict[Key, int] = {}
        self._rng = seeded_rng(seed, 0xCACE)
        self.lookup_cost_us = lookup_cost_us
        self.insert_cost_us = insert_cost_us
        #: Master switch: a disabled cache always misses and never
        #: stores — the "without cache" baseline runs use this so both
        #: configurations execute identical code paths.
        self.enabled = enabled
        #: Flight-recorder hookup, injected by the Runtime; a bare
        #: cache (unit tests) records nothing.
        self.events = None
        self.clock = None
        self.node_id = -1

    def __len__(self) -> int:
        return len(self._table)

    # -- secondary indices ----------------------------------------------

    def _index_discard(self, key: Key) -> None:
        keys = self._by_handle.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_handle[key[0]]
        if self._keys is None:
            return
        # Swap-remove from the dense list: move the tail key into the
        # vacated slot so deletion stays O(1).
        pos = self._pos.pop(key)
        tail = self._keys.pop()
        if tail != key:
            self._keys[pos] = tail
            self._pos[tail] = pos

    # -- operations -----------------------------------------------------

    def lookup(self, handle: Hashable, node: int) -> Tuple[Optional[int], float]:
        """Return ``(base_address | None, cost_us)`` for the pair.

        A disabled cache charges nothing and always misses (that path
        doesn't even do the hash probe in the real runtime).
        """
        if not self.enabled:
            return None, 0.0
        cost = self.lookup_cost_us
        self.stats.lookup_time_us += cost
        key = (handle, node)
        addr = self._table.get(key)
        if addr is None:
            self.stats.misses += 1
            return None, cost
        self.stats.hits += 1
        if self.policy is EvictionPolicy.LRU:
            self._table.move_to_end(key)
        return addr, cost

    def insert(self, handle: Hashable, node: int, base_addr: int) -> float:
        """Record a piggybacked address; returns the cost to charge."""
        if not self.enabled or self.capacity == 0:
            return 0.0
        cost = self.insert_cost_us
        self.stats.insert_time_us += cost
        key = (handle, node)
        if key in self._table:
            self._table[key] = base_addr
            if self.policy is EvictionPolicy.LRU:
                self._table.move_to_end(key)
            self.stats.updates += 1
            return cost
        if len(self._table) >= self.capacity:
            self._evict_one()
        self._table[key] = base_addr
        self._by_handle.setdefault(handle, set()).add(key)
        if self._keys is not None:
            self._pos[key] = len(self._keys)
            self._keys.append(key)
        self.stats.insertions += 1
        return cost

    def _evict_one(self) -> None:
        self.stats.evictions += 1
        if self.policy is EvictionPolicy.RANDOM:
            victim = self._keys[int(self._rng.integers(len(self._keys)))]
            del self._table[victim]
        else:
            # LRU keeps recency order via move_to_end; FIFO never
            # reorders — either way the head is the victim.
            victim, _ = self._table.popitem(last=False)
        self._index_discard(victim)
        ev = self.events
        if ev is not None and ev.enabled:
            from repro.obs.events import CACHE_EVICT
            ev.emit(self.clock.now if self.clock else 0.0, CACHE_EVICT,
                    node=self.node_id, handle=str(victim[0]),
                    target=victim[1], policy=self.policy.value)

    # -- invalidation ------------------------------------------------------

    def invalidate_handle(self, handle: Hashable) -> int:
        """Eager invalidation on deallocation (section 3.1): drop every
        entry of ``handle`` regardless of node.  Returns entries dropped.

        Served from the per-handle index — O(entries for this handle)
        rather than a scan of the whole table, which matters when frees
        are frequent and the table is at capacity.  The index entry is
        popped outright (never looked up with a default that would
        materialize it), so invalidating a handle with zero cached
        entries — the common case under alloc/free churn, where most
        frees never had a remote reader — leaves no empty per-handle
        set behind to accumulate.
        """
        doomed = self._by_handle.pop(handle, None)
        if not doomed:
            return 0
        n = len(doomed)
        for key in doomed:
            del self._table[key]
            self._index_discard(key)
        self.stats.invalidations += n
        ev = self.events
        if ev is not None and ev.enabled:
            from repro.obs.events import CACHE_INVALIDATE
            ev.emit(self.clock.now if self.clock else 0.0,
                    CACHE_INVALIDATE, node=self.node_id,
                    handle=str(handle), count=n)
        return n

    def invalidate_entry(self, handle: Hashable, node: int) -> bool:
        """Targeted invalidation of one ``(handle, node)`` entry — the
        RDMA-timeout degradation path drops exactly the suspect address
        and nothing else, then lets the AM fallback's piggyback re-seed
        it.  O(1) via the same swap-remove indices eviction uses.
        Returns True if the entry was present."""
        key = (handle, node)
        if key not in self._table:
            return False
        del self._table[key]
        self._index_discard(key)
        self.stats.invalidations += 1
        ev = self.events
        if ev is not None and ev.enabled:
            from repro.obs.events import CACHE_INVALIDATE
            ev.emit(self.clock.now if self.clock else 0.0,
                    CACHE_INVALIDATE, node=self.node_id,
                    handle=str(handle), count=1, target=node)
        return True

    def entries(self) -> Dict[Key, int]:
        """Snapshot of the table (for tests and debugging)."""
        return dict(self._table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RemoteAddressCache {len(self._table)}/{self.capacity} "
                f"policy={self.policy.value} hit_rate={self.stats.hit_rate:.2f}>")
