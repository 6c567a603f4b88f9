"""The pinned address table (section 3).

    "To this end we augmented the address cache with a table of
    registered (pinned) memory locations.  The pinned address table is
    tagged by local virtual addresses and contains physical addresses
    in the format needed by RDMA operations."

One table per node.  Before a node's base address may live in another
node's address cache, the object must be pinned *here* (section 3.1:
"before an address can be tagged in another node's address cache it
needs to be pinned locally").  Deallocation unpins and reports which
handle to invalidate remotely.

Section 4.5: "a table of 10 entries is more than enough for well
defined UPC applications" — entry counts are exposed for that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.memory.pinning import NotPinnedError, PinLimitError, PinManager


@dataclass(frozen=True)
class PinnedEntry:
    """One pinned shared object (or chunk of one)."""

    handle: Hashable
    vaddr: int
    size: int
    phys: int


class PinnedAddressTable:
    """Registry of pinned shared-object memory on one node."""

    __slots__ = ("pins", "_by_vaddr", "_by_handle", "pin_time_us",
                 "unpin_time_us", "events", "clock", "node_id",
                 "_unpinnable", "last_pin_error")

    def __init__(self, pin_manager: PinManager) -> None:
        self.pins = pin_manager
        self._by_vaddr: Dict[int, PinnedEntry] = {}
        self._by_handle: Dict[Hashable, List[PinnedEntry]] = {}
        self.pin_time_us = 0.0
        self.unpin_time_us = 0.0
        #: Handles whose registration failed — served over AM forever;
        #: the fast path stops retrying them (see docs/FAULTS.md).
        self._unpinnable: set = set()
        #: The exception behind the most recent ``register`` failure,
        #: for callers that want to fail loudly instead of degrading.
        self.last_pin_error: Optional[PinLimitError] = None
        #: Flight-recorder hookup, injected by the Runtime.
        self.events = None
        self.clock = None
        self.node_id = -1

    def __len__(self) -> int:
        return len(self._by_vaddr)

    def is_pinned(self, vaddr: int, size: int = 1) -> bool:
        return self.pins.is_pinned(vaddr, size)

    def entry_count_for(self, handle: Hashable) -> int:
        return len(self._by_handle.get(handle, ()))

    # -- registration ----------------------------------------------------

    def register(self, handle: Hashable, vaddr: int,
                 size: int) -> Tuple[float, bool]:
        """Pin ``[vaddr, vaddr+size)`` for ``handle``; return
        ``(cost_us, ok)``.

        Idempotent: re-registering a pinned range costs nothing —
        "once a shared object is pinned it remains pinned until it is
        freed" (section 3.1).

        Registration can *fail*: NIC registration memory is finite
        (``PinManager``'s total-bytes limit, or an injected fault
        budget).  A failure returns ``(0.0, False)`` — the table is
        left untouched — and records the underlying exception in
        ``last_pin_error``; the caller decides between raising it
        (strict mode, the pre-fault behavior) and degrading the handle
        to the AM path via :meth:`mark_unpinnable`.

        Every AM handler re-checks a pin that has not changed; that is
        one dict probe when the manager *still* holds a tabled region
        starting at ``vaddr`` and covering ``size`` — the one case in
        which the full path adds no cost, tables nothing and records
        no ``PIN``.  (The table's entries alone would not do: a region
        can be unpinned behind the table's back.)
        """
        region = self.pins.region_at(vaddr)
        if (region is not None and 0 < size <= region.size
                and vaddr in self._by_vaddr):
            return 0.0, True
        try:
            cost, regions = self.pins.pin(vaddr, size)
        except PinLimitError as exc:
            self.last_pin_error = exc
            return 0.0, False
        fresh = 0
        for region in regions:
            if region.vaddr in self._by_vaddr:
                continue  # already tabled (idempotent re-registration)
            entry = PinnedEntry(handle=handle, vaddr=region.vaddr,
                                size=region.size, phys=region.phys)
            self._by_vaddr[region.vaddr] = entry
            self._by_handle.setdefault(handle, []).append(entry)
            fresh += 1
        self.pin_time_us += cost
        ev = self.events
        if fresh and ev is not None and ev.enabled:
            from repro.obs.events import PIN
            ev.emit(self.clock.now if self.clock else 0.0, PIN,
                    node=self.node_id, handle=str(handle), vaddr=vaddr,
                    size=size, regions=fresh, cost=cost)
        return cost, True

    # -- degradation -----------------------------------------------------

    def mark_unpinnable(self, handle: Hashable) -> None:
        """Permanently degrade ``handle`` on this node: registration
        failed, so it is served over the AM path forever and the fast
        path must stop retrying (one failed pin attempt, not one per
        access)."""
        self._unpinnable.add(handle)

    def is_unpinnable(self, handle: Hashable) -> bool:
        return handle in self._unpinnable

    @property
    def unpinnable_count(self) -> int:
        return len(self._unpinnable)

    def lookup_phys(self, vaddr: int) -> Optional[int]:
        """Virtual → physical for RDMA descriptors; None if unpinned."""
        try:
            return self.pins.phys_addr(vaddr)
        except NotPinnedError:
            return None

    # -- deregistration ----------------------------------------------------

    def unregister_handle(self, handle: Hashable) -> Tuple[float, int]:
        """Unpin everything belonging to ``handle`` (object freed).

        Returns ``(cost_us, entries_removed)``.  The caller is
        responsible for eagerly invalidating remote address caches.
        """
        entries = self._by_handle.pop(handle, [])
        self._unpinnable.discard(handle)
        cost = 0.0
        for entry in entries:
            self._by_vaddr.pop(entry.vaddr, None)
            cost += self.pins.unpin(entry.vaddr, entry.size)
        self.unpin_time_us += cost
        ev = self.events
        if entries and ev is not None and ev.enabled:
            from repro.obs.events import UNPIN
            ev.emit(self.clock.now if self.clock else 0.0, UNPIN,
                    node=self.node_id, handle=str(handle),
                    count=len(entries), cost=cost)
        return cost, len(entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PinnedAddressTable entries={len(self._by_vaddr)} "
                f"bytes={self.pins.pinned_bytes}>")
