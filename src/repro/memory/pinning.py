"""Memory registration (pinning) model.

RDMA hardware reads and writes physical memory, so any buffer touched
by a one-sided operation must be *registered*: the OS pins its pages
and hands the NIC a translation.  The paper leans on three facts:

* registration is expensive and deregistration more so (section 3.3);
* LAPI caps the bytes behind a single registered handle (32 MB on the
  paper's machines, section 3.2) so large objects pin in chunks;
* GM caps the *total* DMAable memory (1 GB, section 3.3).

:class:`PinManager` is a per-node registry of pinned regions.  Costs
are returned to the caller (the transport charges them on the virtual
clock); this module itself is clock-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.memory.errors import NotPinnedError, PinLimitError

#: Physical addresses are synthesized from virtual ones with a node
#: salt — "physical addresses in the format needed by RDMA operations"
#: (section 3) are opaque tokens as far as the model is concerned.
_PHYS_SALT = 0x7A00_0000_0000


@dataclass(frozen=True)
class PinCostModel:
    """Cost of registering/deregistering memory, in microseconds.

    ``pin = pin_base_us + pages * pin_per_page_us`` and likewise for
    unpin.  Defaults approximate published GM measurements (tens of µs
    per registration, dereg ~2x pin).
    """

    pin_base_us: float = 10.0
    pin_per_page_us: float = 0.25
    unpin_base_us: float = 20.0
    unpin_per_page_us: float = 0.5

    def pin_cost(self, nbytes: int, page_size: int) -> float:
        pages = -(-nbytes // page_size)
        return self.pin_base_us + pages * self.pin_per_page_us

    def unpin_cost(self, nbytes: int, page_size: int) -> float:
        pages = -(-nbytes // page_size)
        return self.unpin_base_us + pages * self.unpin_per_page_us


@dataclass(frozen=True)
class PinnedRegion:
    """One registered handle: a contiguous pinned byte range."""

    vaddr: int
    size: int
    phys: int

    @property
    def end(self) -> int:
        return self.vaddr + self.size

    def covers(self, vaddr: int, size: int) -> bool:
        return self.vaddr <= vaddr and vaddr + size <= self.end


class PinManager:
    """Registry of pinned regions on one node.

    ``max_region_bytes`` models LAPI's per-handle cap: a pin request
    larger than it is split into several :class:`PinnedRegion` handles.
    ``max_total_bytes`` models GM's DMAable-memory cap: exceeding it
    raises :class:`PinLimitError` (callers then fall back to copy
    protocols or evict via the registration cache).
    """

    __slots__ = ("node_id", "page_size", "cost_model", "max_region_bytes",
                 "max_total_bytes", "_regions", "pinned_bytes",
                 "pin_calls", "unpin_calls", "peak_pinned_bytes")

    def __init__(self, node_id: int, cost_model: Optional[PinCostModel] = None,
                 page_size: int = 4096,
                 max_region_bytes: Optional[int] = None,
                 max_total_bytes: Optional[int] = None) -> None:
        self.node_id = node_id
        self.page_size = page_size
        self.cost_model = cost_model or PinCostModel()
        self.max_region_bytes = max_region_bytes
        self.max_total_bytes = max_total_bytes
        #: vaddr of region start -> PinnedRegion (regions never overlap)
        self._regions: Dict[int, PinnedRegion] = {}
        self.pinned_bytes = 0
        self.peak_pinned_bytes = 0
        self.pin_calls = 0
        self.unpin_calls = 0

    # -- queries -------------------------------------------------------

    def is_pinned(self, vaddr: int, size: int = 1) -> bool:
        """True if ``[vaddr, vaddr+size)`` is fully covered."""
        return self._regions_covering(vaddr, size) is not None

    def _regions_covering(self, vaddr: int,
                          size: int) -> Optional[List[PinnedRegion]]:
        """The regions covering ``[vaddr, vaddr+size)`` in address
        order, or None if some byte of it is not pinned.

        Regions produced by one chunked ``pin`` call are contiguous, so
        coverage may span several of them.
        """
        out = []
        pos, end = vaddr, vaddr + size
        while pos < end:
            region = self._find_covering(pos)
            if region is None:
                return None
            out.append(region)
            pos = region.end
        return out

    def region_at(self, vaddr: int) -> Optional[PinnedRegion]:
        """The region that starts exactly at ``vaddr``, if any."""
        return self._regions.get(vaddr)

    def _find_covering(self, vaddr: int) -> Optional[PinnedRegion]:
        # Regions never overlap, so one starting at ``vaddr`` is the
        # covering one — the common probe (an arena or chunk base).
        region = self._regions.get(vaddr)
        if region is not None:
            return region
        for region in self._regions.values():
            if region.vaddr <= vaddr < region.end:
                return region
        return None

    def phys_addr(self, vaddr: int) -> int:
        """Physical address for a pinned virtual address.

        This is what the paper's *pinned address table* serves: "tagged
        by local virtual addresses and contains physical addresses in
        the format needed by RDMA operations" (section 3).
        """
        region = self._find_covering(vaddr)
        if region is None:
            raise NotPinnedError(
                f"node {self.node_id}: {vaddr:#x} is not registered"
            )
        return region.phys + (vaddr - region.vaddr)

    # -- pin / unpin -----------------------------------------------------

    def pin(self, vaddr: int, size: int) -> Tuple[float, List[PinnedRegion]]:
        """Register ``[vaddr, vaddr+size)``; returns (cost_us, regions).

        Already-pinned spans are skipped (idempotent, zero marginal
        cost), matching the greedy "once pinned stays pinned" policy of
        section 3.1.  Chunking honours ``max_region_bytes``.
        """
        if size <= 0:
            raise PinLimitError(f"pin size must be > 0, got {size}")
        covering = self._regions_covering(vaddr, size)
        if covering is not None:
            return 0.0, covering

        new_bytes = self._uncovered_bytes(vaddr, size)
        if (self.max_total_bytes is not None
                and self.pinned_bytes + new_bytes > self.max_total_bytes):
            raise PinLimitError(
                f"node {self.node_id}: pinning {new_bytes} bytes would "
                f"exceed the DMAable limit of {self.max_total_bytes}"
            )

        cost = 0.0
        created: List[PinnedRegion] = []
        pos, end = vaddr, vaddr + size
        while pos < end:
            covering = self._find_covering(pos)
            if covering is not None:
                pos = covering.end
                continue
            # Extent of the uncovered gap starting at pos.
            gap_end = min(end, self._next_region_start(pos, end))
            chunk_cap = self.max_region_bytes or (gap_end - pos)
            while pos < gap_end:
                chunk = min(chunk_cap, gap_end - pos)
                region = PinnedRegion(
                    vaddr=pos, size=chunk,
                    phys=_PHYS_SALT + (self.node_id << 40) + pos,
                )
                self._regions[pos] = region
                created.append(region)
                cost += self.cost_model.pin_cost(chunk, self.page_size)
                self.pinned_bytes += chunk
                self.pin_calls += 1
                pos += chunk
        self.peak_pinned_bytes = max(self.peak_pinned_bytes, self.pinned_bytes)
        return cost, created

    def _next_region_start(self, pos: int, end: int) -> int:
        starts = [r.vaddr for r in self._regions.values()
                  if pos < r.vaddr < end]
        return min(starts) if starts else end

    def _uncovered_bytes(self, vaddr: int, size: int) -> int:
        covered = 0
        for region in self._regions.values():
            lo = max(region.vaddr, vaddr)
            hi = min(region.end, vaddr + size)
            if hi > lo:
                covered += hi - lo
        return size - covered

    def unpin(self, vaddr: int, size: int) -> float:
        """Deregister every region overlapping ``[vaddr, vaddr+size)``.

        Returns the deregistration cost. Used when a shared object is
        freed ("once a shared object is pinned it remains pinned until
        it is freed", section 3.1) and by the registration cache's lazy
        eviction.
        """
        return self.unpin_regions([r for r in self._regions.values()
                                   if r.vaddr < vaddr + size
                                   and vaddr < r.end])

    def unpin_regions(self, regions: List[PinnedRegion]) -> float:
        """Deregister exactly ``regions`` — e.g. the ones a caller's own
        :meth:`pin` created — skipping any no longer registered; returns
        the deregistration cost."""
        cost = 0.0
        for region in regions:
            if self._regions.get(region.vaddr) is not region:
                continue
            del self._regions[region.vaddr]
            self.pinned_bytes -= region.size
            self.unpin_calls += 1
            cost += self.cost_model.unpin_cost(region.size, self.page_size)
        return cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PinManager node={self.node_id} regions={len(self._regions)} "
                f"bytes={self.pinned_bytes}>")
