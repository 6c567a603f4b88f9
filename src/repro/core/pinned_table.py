"""The pinned address table (section 3): the one registry of a node's
registered memory, built by its :class:`~repro.network.node.Node`.

    "The pinned address table is tagged by local virtual addresses and
    contains physical addresses in the format needed by RDMA
    operations."

Every region has one owner: an object handle — pinned at the object's
first remote touch and "until it is freed" (section 3.1, :meth:`free`)
— or ``None``, the pin-down cache of section 3.3, which keeps transfer
buffers registered and deregisters them lazily, least recently used
first, when its ``capacity_bytes`` would be exceeded.  A handle that
registers memory the cache holds takes it over at no cost, so a lazy
eviction never deregisters an object's memory.

``handles[handle]`` is ``(True, base)`` once the object's whole arena
is pinned (``base`` goes into remote caches) or :data:`UNPINNABLE` once
its registration failed (served over AM forever, docs/FAULTS.md); it
lives until free, so an AM handler re-checks an object with one probe.

A region is the tuple ``(vaddr, end, owner)``; ``regions`` maps starts
to regions and ``_starts`` keeps them sorted for ``bisect``.  Costs are
returned, never charged here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

from repro.memory.errors import PinLimitError
from repro.memory.pinning import PinCostModel, phys_base
from repro.util.units import MB

Region = Tuple[int, int, Optional[Hashable]]

#: The ``handles`` entry of an object whose registration failed.
UNPINNABLE: Tuple[bool, Optional[int]] = (False, None)


class PinnedAddressTable:
    """The registered memory of one node (see the module docstring)."""

    __slots__ = ("node_id", "page_size", "cost_model", "max_region_bytes",
                 "max_total_bytes", "capacity_bytes", "phys_base",
                 "regions", "_starts", "_lru", "handles", "pinned_bytes",
                 "cached_bytes", "last_pin_error", "events", "clock")

    def __init__(self, node_id: int, cost_model: Optional[PinCostModel] = None,
                 page_size: int = 4096,
                 max_region_bytes: Optional[int] = None,
                 max_total_bytes: Optional[int] = None,
                 capacity_bytes: int = 256 * MB) -> None:
        if capacity_bytes <= 0:
            raise PinLimitError(
                f"pin-down cache capacity must be > 0, got {capacity_bytes}")
        self.node_id = node_id
        self.page_size = page_size
        self.cost_model = cost_model or PinCostModel()
        #: LAPI's per-handle cap: a larger pin is split into chunks.
        self.max_region_bytes = max_region_bytes
        #: GM's DMAable-memory cap: a pin beyond it fails.
        self.max_total_bytes = max_total_bytes
        #: The most bytes of transfer ranges the pin-down cache holds.
        self.capacity_bytes = capacity_bytes
        self.phys_base = phys_base(node_id)
        self.regions: Dict[int, Region] = {}
        self._starts: List[int] = []
        #: The pin-down cache: each cached transfer range ``(vaddr,
        #: size)`` → the regions pinned for it, least recent first.
        self._lru: "OrderedDict[Tuple[int, int], List[Region]]" = OrderedDict()
        self.handles: Dict[Hashable, Tuple[bool, Optional[int]]] = {}
        self.pinned_bytes = 0
        #: Bytes of the ranges the pin-down cache holds (≤ capacity).
        self.cached_bytes = 0
        #: The exception behind the most recent failed ``register``.
        self.last_pin_error: Optional[PinLimitError] = None
        #: Flight-recorder hookup, injected by the Runtime.
        self.events = None
        self.clock = None

    def __len__(self) -> int:
        return len(self._starts)

    # -- queries -----------------------------------------------------------

    def is_pinned(self, vaddr: int, size: int = 1) -> bool:
        """True if every byte of ``[vaddr, vaddr+size)`` is registered,
        possibly by several adjacent regions (chunks)."""
        starts, regions = self._starts, self.regions
        i = bisect_right(starts, vaddr) - 1
        pos, end = vaddr, vaddr + size
        while 0 <= i < len(starts):
            start, stop, _ = regions[starts[i]]
            if start > pos or stop <= pos:
                return False
            if stop >= end:
                return True
            pos = stop
            i += 1
        return False

    def lookup_phys(self, vaddr: int) -> Optional[int]:
        """Virtual → physical for RDMA descriptors; None if unpinned."""
        starts = self._starts
        i = bisect_right(starts, vaddr) - 1
        if i >= 0 and vaddr < self.regions[starts[i]][1]:
            return self.phys_base + vaddr
        return None

    # -- object registration -----------------------------------------------

    def register(self, handle: Hashable, vaddr: int,
                 size: int) -> Tuple[float, bool]:
        """Pin ``[vaddr, vaddr+size)`` for ``handle``; return
        ``(cost_us, ok)``.

        Idempotent: what is pinned already costs nothing, and what the
        pin-down cache holds moves to ``handle`` (a zero-cost ``PIN``).
        Registration can *fail* (the total cap, or an empty range):
        then the table is untouched, ``(0.0, False)`` is returned and
        ``last_pin_error`` holds the exception; the caller raises it
        (strict mode) or degrades the handle to the AM path.
        """
        try:
            cost, fresh = self._pin(vaddr, size, handle)
        except PinLimitError as exc:
            self.last_pin_error = exc
            return 0.0, False
        ev = self.events
        if fresh and ev is not None and ev.enabled:
            from repro.obs.events import PIN
            ev.emit(self.clock.now if self.clock else 0.0, PIN,
                    node=self.node_id, handle=str(handle), vaddr=vaddr,
                    size=size, regions=len(fresh), cost=cost)
        return cost, True

    def free(self, handle: Hashable, vaddr: int, size: int) -> float:
        """The object ``handle`` is freed and ``[vaddr, vaddr+size)`` is
        its arena here: deregister every region in the arena, whoever
        owns it, forget the cached transfers that touch it and the
        handle's entry.  Returns the deregistration cost; the caller
        invalidates remote address caches."""
        handles, end, count = self.handles, vaddr + size, len(self)
        handles.pop(handle, None)
        doomed = self._overlapping(vaddr, end)
        cost = 0.0
        for region in doomed:
            cost += self._drop(region)
        for key in [k for k in self._lru if k[0] < end and vaddr < sum(k)]:
            cost += self._forget(key)
        if any(r[0] < vaddr or r[1] > end for r in doomed):
            # A region reaching past the arena may have served another
            # object: entries are re-derived at its next touch.
            for other in [h for h, (ok, _) in handles.items() if ok]:
                del handles[other]
        count -= len(self)
        ev = self.events
        if count and ev is not None and ev.enabled:
            from repro.obs.events import UNPIN
            ev.emit(self.clock.now if self.clock else 0.0, UNPIN,
                    node=self.node_id, handle=str(handle), count=count,
                    cost=cost)
        return cost

    # -- the pin-down cache ------------------------------------------------

    def register_lazy(self, vaddr: int, size: int) -> float:
        """Keep the transfer buffer ``[vaddr, vaddr+size)`` registered;
        return the µs cost incurred: 0 on a hit (cached and still
        pinned), else the pin cost of what is not registered yet plus
        the deregistration of the ranges evicted to make room."""
        key = (vaddr, size)
        if key in self._lru and self.is_pinned(vaddr, size):
            self._lru.move_to_end(key)
            return 0.0
        return self._lazy_miss(key)

    def _lazy_miss(self, key: Tuple[int, int]) -> float:
        vaddr, size = key
        if size > self.capacity_bytes:
            raise PinLimitError(
                f"region of {size} bytes exceeds the pin-down cache "
                f"capacity {self.capacity_bytes}")
        lru = self._lru
        if key in lru:
            self.cached_bytes -= size
        owned = lru.pop(key, [])
        cost = 0.0
        while lru and self.cached_bytes + size > self.capacity_bytes:
            cost += self._evict()
        lru[key] = owned
        self.cached_bytes += size
        pin_cost, fresh = self._pin(vaddr, size, None)
        owned += fresh
        return cost + pin_cost

    def _evict(self) -> float:
        """Lazy deregistration: forget the least recently used range."""
        return self._forget(next(iter(self._lru)))

    def _forget(self, key: Tuple[int, int]) -> float:
        """Drop a cached range and deregister the regions it pinned
        that the cache still owns; returns the cost."""
        regions, cost = self.regions, 0.0
        self.cached_bytes -= key[1]
        for region in self._lru.pop(key):
            if regions.get(region[0]) is region:
                cost += self._drop(region)
        return cost

    # -- regions -----------------------------------------------------------

    def _pin(self, vaddr: int, size: int,
             owner: Optional[Hashable]) -> Tuple[float, List[Region]]:
        """Register what of ``[vaddr, vaddr+size)`` is not yet, in chunks
        of at most ``max_region_bytes``, for ``owner``; an object owner
        also takes over the pin-down cache's regions in the range.
        Returns the pin cost and the regions ``owner`` gained."""
        if size <= 0:
            raise PinLimitError(f"pin size must be > 0, got {size}")
        end = vaddr + size
        covered = self._overlapping(vaddr, end)
        gaps, pos, new_bytes = [], vaddr, 0
        for start, stop, _ in covered:
            if start > pos:
                gaps.append((pos, start))
                new_bytes += start - pos
            pos = stop
        if pos < end:
            gaps.append((pos, end))
            new_bytes += end - pos
        limit = self.max_total_bytes
        if limit is not None and self.pinned_bytes + new_bytes > limit:
            raise PinLimitError(
                f"node {self.node_id}: pinning {new_bytes} bytes would "
                f"exceed the DMAable limit of {limit}")
        fresh: List[Region] = []
        starts, regions = self._starts, self.regions
        if owner is not None:
            for start, stop, held in covered:
                if held is None:
                    fresh.append((start, stop, owner))
                    regions[start] = fresh[-1]
        cost, chunk = 0.0, self.max_region_bytes
        pin_cost, page = self.cost_model.pin_cost, self.page_size
        for lo, hi in gaps:
            while lo < hi:
                stop = min(hi, lo + chunk) if chunk else hi
                fresh.append((lo, stop, owner))
                regions[lo] = fresh[-1]
                insort(starts, lo)
                cost += pin_cost(stop - lo, page)
                self.pinned_bytes += stop - lo
                lo = stop
        return cost, fresh

    def _overlapping(self, vaddr: int, end: int) -> List[Region]:
        """The regions meeting ``[vaddr, end)``, in address order."""
        starts, regions = self._starts, self.regions
        i = bisect_right(starts, vaddr) - 1
        if i < 0 or regions[starts[i]][1] <= vaddr:
            i += 1
        return [regions[s] for s in starts[i:bisect_left(starts, end)]]

    def _drop(self, region: Region) -> float:
        """Deregister one region; returns the cost."""
        start, stop, _ = region
        del self.regions[start]
        self._starts.remove(start)
        self.pinned_bytes -= stop - start
        return self.cost_model.unpin_cost(stop - start, self.page_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PinnedAddressTable node={self.node_id} "
                f"regions={len(self)} bytes={self.pinned_bytes}>")
