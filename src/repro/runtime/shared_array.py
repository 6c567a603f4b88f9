"""Distributed shared arrays.

A :class:`SharedArray` is the workhorse shared object: block-cyclic
element distribution over UPC threads (section 2.1), per-node storage
arenas, and a real NumPy data plane so kernels compute real answers.

Storage model (see :mod:`repro.runtime.layout`): every node hosting
threads ``t0..tk`` reserves one contiguous arena of
``(k+1) * thread_chunk_bytes`` bytes in its own address space.  The
arena's base address is what remote nodes cache; the byte offset of
any element within the remote arena is pure layout arithmetic, so a
cache hit enables ``base + offset`` RDMA exactly as in section 3.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

import numpy as np

from repro.runtime.errors import LayoutError
from repro.runtime.handle import SVDHandle
from repro.runtime.layout import BlockCyclicLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class SharedArray:
    """One distributed shared array (created via runtime allocators)."""

    def __init__(self, runtime: "Runtime", handle: SVDHandle,
                 layout: BlockCyclicLayout, dtype: np.dtype,
                 owner: int | None = None) -> None:
        self.runtime = runtime
        self.handle = handle
        self.layout = layout
        #: When set, *every* element is affine to this thread
        #: (``upc_alloc``-style local allocation).
        self.owner = owner
        self.dtype = np.dtype(dtype)
        if self.dtype.itemsize != layout.elem_size:
            raise LayoutError(
                f"dtype {self.dtype} itemsize {self.dtype.itemsize} != "
                f"layout elem_size {layout.elem_size}")
        #: Fixed at build time: read on every access, not through a call
        #: (nor is the thread-to-node divisor ``_tpn`` below).
        self.elem_size = layout.elem_size
        self._chunk_bytes = layout.thread_chunk_bytes
        self._tpn = runtime.config.effective_threads_per_node
        #: The logical global array (data plane).
        self.data = np.zeros(layout.nelems, dtype=self.dtype)
        #: node id -> arena base vaddr (only nodes hosting threads).
        self.node_base: Dict[int, int] = {}
        #: node id -> arena size in bytes.
        self.node_bytes: Dict[int, int] = {}
        self._allocate_arenas()
        self.freed = False

    # -- storage ------------------------------------------------------

    def _allocate_arenas(self) -> None:
        rt = self.runtime
        if self.owner is not None:
            node_id = self._owner_node = rt.node_of_thread(self.owner)
            size = self.layout.nelems * self.layout.elem_size
            base = rt.cluster.node(node_id).memory.allocate(size, align=64)
            self.node_base[node_id] = base
            self.node_bytes[node_id] = size
            return
        chunk = self.layout.thread_chunk_bytes
        per_node: Dict[int, List[int]] = {}
        for t in range(self.layout.nthreads):
            per_node.setdefault(rt.node_of_thread(t), []).append(t)
        for node_id, threads in per_node.items():
            size = len(threads) * chunk
            base = rt.cluster.node(node_id).memory.allocate(size, align=64)
            self.node_base[node_id] = base
            self.node_bytes[node_id] = size

    def free_arenas(self) -> None:
        for node_id, base in self.node_base.items():
            self.runtime.cluster.node(node_id).memory.free(base)
        self.node_base.clear()
        self.node_bytes.clear()
        self.freed = True

    # -- addressing -----------------------------------------------------

    @property
    def nelems(self) -> int:
        return self.layout.nelems

    @property
    def total_bytes(self) -> int:
        return sum(self.node_bytes.values()) if self.node_bytes else 0

    def locate(self, index: int) -> Tuple[int, int, int]:
        """``(owner thread, owner node, byte offset within that node's
        arena)`` of element ``index`` — the layout arithmetic of
        :mod:`repro.runtime.layout` resolved in one pass, behind one
        bounds check; the op engine calls this once per access.

        The offset is computable on *any* node from directory metadata
        alone — the initiator-side half of the RDMA address computation.
        """
        lay = self.layout
        if not 0 <= index < lay.nelems:
            raise LayoutError(
                f"index {index} out of range [0, {lay.nelems})")
        if self.owner is not None:
            return self.owner, self._owner_node, index * self.elem_size
        block, phase = divmod(index, lay.blocksize)
        course, t = divmod(block, lay.nthreads)
        node, slot = divmod(t, self._tpn)
        return t, node, (slot * self._chunk_bytes
                         + (course * lay.blocksize + phase) * self.elem_size)

    def owner_thread(self, index: int) -> int:
        if self.owner is not None:
            self.layout._check(index)
            return self.owner
        return self.layout.thread_of(index)

    def owner_node(self, index: int) -> int:
        return self.locate(index)[1]

    def arena_offset(self, index: int) -> int:
        """Byte offset of element ``index`` within its node's arena."""
        return self.locate(index)[2]

    def addr_of(self, index: int) -> Tuple[int, int]:
        """(node id, virtual address) of element ``index``."""
        _, node, offset = self.locate(index)
        return node, self.node_base[node] + offset

    # -- data plane -------------------------------------------------------

    def read(self, index: int, nelems: int = 1) -> np.ndarray:
        """Read a copy of ``[index, index+nelems)`` from the data plane."""
        self._check_span(index, nelems)
        return self.data[index:index + nelems].copy()

    def write(self, index: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self.dtype).ravel()
        self._check_span(index, len(values))
        self.data[index:index + len(values)] = values

    def _check_span(self, index: int, nelems: int) -> None:
        if nelems <= 0:
            raise LayoutError(f"nelems must be > 0, got {nelems}")
        if not (0 <= index and index + nelems <= self.nelems):
            raise LayoutError(
                f"span [{index}, {index + nelems}) out of range "
                f"[0, {self.nelems})")

    def __len__(self) -> int:
        return self.nelems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SharedArray {self.handle} n={self.nelems} "
                f"bs={self.layout.blocksize} dtype={self.dtype}>")
