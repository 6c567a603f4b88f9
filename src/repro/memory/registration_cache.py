"""Pin-down cache: registered-region cache with lazy deregistration.

Section 3.3: *"As an optimization a cache of registered memory regions
was implemented with lazy memory de-registration"* — because on
Myrinet/GM "memory registration is an expensive operation; memory
de-registration even more so", the transport keeps regions registered
after a transfer finishes and only deregisters (lazily, LRU-first)
when the DMAable-memory budget is exceeded.

This is the same idea as the Pin-down cache of PM (Tezuka et al.) and
Berkeley UPC's Firehose, cited in section 5.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from repro.memory.errors import PinLimitError
from repro.memory.pinning import PinManager, PinnedRegion


class RegistrationCache:
    """LRU cache of registered regions on top of a :class:`PinManager`.

    ``register`` returns the µs cost actually incurred:

    * hit → 0 (region already pinned, refresh LRU);
    * miss → pin cost, possibly plus unpin costs of evicted victims
      when ``capacity_bytes`` would be exceeded.
    """

    __slots__ = ("pins", "capacity_bytes", "_lru", "hits", "misses",
                 "evictions")

    def __init__(self, pin_manager: PinManager, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise PinLimitError(
                f"registration cache capacity must be > 0, got {capacity_bytes}"
            )
        self.pins = pin_manager
        self.capacity_bytes = capacity_bytes
        #: (vaddr, size) -> the regions this cache's own ``pin`` created
        #: for it, in LRU order (oldest first).  A range that was
        #: already pinned (say, an object arena the pinned address
        #: table registered, "pinned until it is freed", section 3.1)
        #: owns nothing, so evicting it deregisters nothing.
        self._lru: "OrderedDict[Tuple[int, int], List[PinnedRegion]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def resident_bytes(self) -> int:
        return sum(size for (_, size) in self._lru)

    def register(self, vaddr: int, size: int) -> float:
        """Ensure ``[vaddr, vaddr+size)`` is registered; return µs cost."""
        key = (vaddr, size)
        if key in self._lru and self.pins.is_pinned(vaddr, size):
            self._lru.move_to_end(key)
            self.hits += 1
            return 0.0
        self.misses += 1
        cost = self._make_room(size)
        covered = self.pins.is_pinned(vaddr, size)
        pin_cost, regions = self.pins.pin(vaddr, size)
        cost += pin_cost
        self._lru[key] = [] if covered else regions
        self._lru.move_to_end(key)
        return cost

    def _make_room(self, incoming: int) -> float:
        """Lazily deregister LRU victims until ``incoming`` bytes fit."""
        if incoming > self.capacity_bytes:
            raise PinLimitError(
                f"region of {incoming} bytes exceeds registration cache "
                f"capacity {self.capacity_bytes}"
            )
        cost = 0.0
        while self.resident_bytes + incoming > self.capacity_bytes and self._lru:
            _, owned = self._lru.popitem(last=False)
            cost += self.pins.unpin_regions(owned)
            self.evictions += 1
        return cost

    def invalidate(self, vaddr: int, size: int) -> float:
        """Drop any cached region overlapping the range, deregistering
        what this cache pinned for it.

        Called when the memory is freed; returns the unpin cost.
        """
        cost = 0.0
        doomed = [k for k in self._lru
                  if k[0] < vaddr + size and vaddr < k[0] + k[1]]
        for key in doomed:
            cost += self.pins.unpin_regions(self._lru.pop(key))
        return cost

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RegistrationCache entries={len(self._lru)} "
                f"bytes={self.resident_bytes}/{self.capacity_bytes} "
                f"hit_rate={self.hit_rate:.2f}>")
