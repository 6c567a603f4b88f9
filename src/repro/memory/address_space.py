"""Per-node virtual address space with a first-fit allocator.

Each node's heap starts at a node-dependent base so the same shared
object lands at a *different* virtual address on every node — the
property (Figure 2: "Distributed shared array All-0 has a different
local address on every node") that motivates the entire remote address
cache.  Previously existing UPC runtimes forced identical addresses on
all nodes, fragmenting the address space (section 5); the XLUPC design
deliberately does not.

Addresses are plain ints; no real memory backs them (the data plane
lives in NumPy arrays owned by the runtime's shared objects).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Tuple

from repro.memory.errors import AllocationError

#: Heap base of node 0; chosen to look like a mmap'd region.
_HEAP_BASE = 0x2000_0000
#: Per-node stagger.  A prime-ish odd stride keeps node heaps disjoint
#: and makes accidental cross-node address reuse (a classic bug this
#: model is designed to surface) essentially impossible.
_NODE_STRIDE = 0x0137_1000_0


class AddressSpace:
    """Virtual address allocator for one node.

    First-fit over a sorted free list with coalescing on free; bump
    allocation extends the heap when no hole fits.  O(holes) per call,
    which is fine: UPC applications declare few shared variables
    (section 4.5).
    """

    __slots__ = ("node_id", "page_size", "_base", "_brk", "_limit",
                 "_live", "_holes", "allocated_bytes", "peak_bytes",
                 "alloc_count", "free_count")

    def __init__(self, node_id: int, page_size: int = 4096,
                 capacity_bytes: int = 8 * 1024 ** 3) -> None:
        if node_id < 0:
            raise AllocationError(f"node_id must be >= 0, got {node_id}")
        self.node_id = node_id
        self.page_size = page_size
        self._base = _HEAP_BASE + node_id * _NODE_STRIDE
        self._brk = self._base
        self._limit = self._base + capacity_bytes
        #: live allocations: vaddr -> size
        self._live: Dict[int, int] = {}
        #: free holes as sorted list of (vaddr, size)
        self._holes: List[Tuple[int, int]] = []
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    # -- queries ------------------------------------------------------

    @property
    def base(self) -> int:
        return self._base

    def owns(self, vaddr: int) -> bool:
        """True if ``vaddr`` falls inside this node's heap range."""
        return self._base <= vaddr < self._limit

    # -- allocate / free ---------------------------------------------

    def allocate(self, size: int, align: int = 16) -> int:
        """Allocate ``size`` bytes, ``align``-aligned; returns vaddr."""
        if size <= 0:
            raise AllocationError(f"allocation size must be > 0, got {size}")
        if align <= 0 or (align & (align - 1)):
            raise AllocationError(f"alignment must be a power of two, got {align}")
        # First fit in existing holes.
        for i, (start, hole) in enumerate(self._holes):
            aligned = (start + align - 1) & ~(align - 1)
            waste = aligned - start
            if hole >= waste + size:
                del self._holes[i]
                if waste:
                    insort(self._holes, (start, waste))
                rest = hole - waste - size
                if rest:
                    insort(self._holes, (aligned + size, rest))
                return self._finish_alloc(aligned, size)
        # Bump.
        aligned = (self._brk + align - 1) & ~(align - 1)
        if aligned + size > self._limit:
            raise AllocationError(
                f"node {self.node_id}: out of memory "
                f"({size} bytes requested, heap limit {self._limit:#x})"
            )
        if aligned != self._brk:
            insort(self._holes, (self._brk, aligned - self._brk))
        self._brk = aligned + size
        return self._finish_alloc(aligned, size)

    def _finish_alloc(self, vaddr: int, size: int) -> int:
        self._live[vaddr] = size
        self.allocated_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self.alloc_count += 1
        return vaddr

    def free(self, vaddr: int) -> int:
        """Free the block at ``vaddr``; returns its size."""
        size = self._live.pop(vaddr, None)
        if size is None:
            raise AllocationError(
                f"node {self.node_id}: free({vaddr:#x}) — not allocated "
                "(double free?)"
            )
        self.allocated_bytes -= size
        self.free_count += 1
        self._insert_hole(vaddr, size)
        return size

    def _insert_hole(self, vaddr: int, size: int) -> None:
        """Insert and coalesce with adjacent holes / the brk frontier."""
        insort(self._holes, (vaddr, size))
        # Coalesce neighbours (the list is sorted by address).
        merged: List[Tuple[int, int]] = []
        for start, sz in self._holes:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((start, sz))
        # Give back a hole touching the frontier.
        if merged and merged[-1][0] + merged[-1][1] == self._brk:
            start, sz = merged.pop()
            self._brk = start
        self._holes = merged

    # -- stats ---------------------------------------------------------

    @property
    def fragmentation(self) -> float:
        """Fraction of the touched heap currently sitting in holes."""
        touched = self._brk - self._base
        if touched == 0:
            return 0.0
        return sum(sz for _, sz in self._holes) / touched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<AddressSpace node={self.node_id} live={len(self._live)} "
                f"bytes={self.allocated_bytes} holes={len(self._holes)}>")
