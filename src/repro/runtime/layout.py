"""Block-cyclic data layouts (section 2.1).

    "Shared arrays are distributed in a block-cyclic fashion among the
    threads, so different pieces of the array have affinity to
    different threads."

The layout is pure arithmetic shared by every node: ownership and
local offsets are computable anywhere, which is precisely what lets a
cache hit compute ``base address + offset`` on the initiator node.

Local storage convention (mirrors XLUPC's per-node arenas): each
thread owns ``ceil(nblocks / nthreads)`` block slots of ``blocksize``
elements laid out contiguously; a node's arena concatenates the chunks
of its resident threads.  The *node base address* of that arena is the
thing the remote address cache stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.errors import LayoutError


@dataclass(frozen=True)
class BlockCyclicLayout:
    """Distribution of ``nelems`` elements over ``nthreads`` threads."""

    nelems: int
    elem_size: int
    blocksize: int
    nthreads: int

    def __post_init__(self) -> None:
        if self.nelems <= 0:
            raise LayoutError(f"nelems must be > 0, got {self.nelems}")
        if self.elem_size <= 0:
            raise LayoutError(f"elem_size must be > 0, got {self.elem_size}")
        if self.blocksize <= 0:
            raise LayoutError(f"blocksize must be > 0, got {self.blocksize}")
        if self.nthreads <= 0:
            raise LayoutError(f"nthreads must be > 0, got {self.nthreads}")

    # -- block arithmetic ------------------------------------------------

    @property
    def nblocks(self) -> int:
        return -(-self.nelems // self.blocksize)

    @property
    def max_blocks_per_thread(self) -> int:
        """Block slots reserved per thread (uniform arena sizing)."""
        return -(-self.nblocks // self.nthreads)

    @property
    def thread_chunk_elems(self) -> int:
        """Capacity (in elements) of one thread's local chunk."""
        return self.max_blocks_per_thread * self.blocksize

    @property
    def thread_chunk_bytes(self) -> int:
        return self.thread_chunk_elems * self.elem_size

    def _check(self, index: int) -> None:
        if not 0 <= index < self.nelems:
            raise LayoutError(
                f"index {index} out of range [0, {self.nelems})")

    def thread_of(self, index: int) -> int:
        """Affinity: which UPC thread owns element ``index``."""
        self._check(index)
        return (index // self.blocksize) % self.nthreads

    def local_index(self, index: int) -> int:
        """Element offset within the owner thread's local chunk."""
        self._check(index)
        block, phase = divmod(index, self.blocksize)
        return (block // self.nthreads) * self.blocksize + phase

    def local_offset_bytes(self, index: int) -> int:
        return self.local_index(index) * self.elem_size

    def contiguous_span(self, index: int, nelems: int) -> bool:
        """True if ``[index, index+nelems)`` lives inside one block
        (hence is contiguous both globally and locally)."""
        self._check(index)
        if nelems <= 0:
            raise LayoutError(f"nelems must be > 0, got {nelems}")
        self._check(index + nelems - 1)
        return (index // self.blocksize
                == (index + nelems - 1) // self.blocksize)
