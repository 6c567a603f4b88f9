"""Shared scalars (section 2.1: "shared scalars (including
structures/unions/enumerations)").

A shared scalar has affinity to exactly one UPC thread (thread 0 for
statically allocated ones, per the UPC spec); remote threads reach it
through the same GET/PUT machinery as arrays — it is simply a
one-element object whose base address can be cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.runtime.handle import SVDHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class SharedScalar:
    """One shared scalar with affinity to ``owner_thread``.

    Implements the same addressing protocol the op engine uses for
    arrays (a scalar is a one-element object), so remote scalar
    accesses flow through the full GET/PUT machinery — including the
    address cache: a scalar's base address is cacheable exactly like
    an array arena's.
    """

    def __init__(self, runtime: "Runtime", handle: SVDHandle,
                 owner_thread: int, dtype: np.dtype) -> None:
        self.runtime = runtime
        self.handle = handle
        self.owner = owner_thread
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(1, dtype=self.dtype)
        self.elem_size = self.dtype.itemsize
        node = runtime.node_of_thread(owner_thread)
        self._owner_node = node
        self.vaddr = runtime.cluster.node(node).memory.allocate(
            self.dtype.itemsize, align=16)
        #: Op-engine protocol: per-node storage map.
        self.node_base = {node: self.vaddr}
        self.node_bytes = {node: self.dtype.itemsize}
        self.freed = False

    # -- compatibility aliases ------------------------------------------

    @property
    def home_node(self) -> int:
        return self._owner_node

    # -- op-engine protocol (one-element object) --------------------------

    def locate(self, index: int = 0) -> Tuple[int, int, int]:
        self._check(index)
        return self.owner, self._owner_node, 0

    def owner_node(self, index: int = 0) -> int:
        self._check(index)
        return self._owner_node

    def addr_of(self, index: int = 0) -> Tuple[int, int]:
        self._check(index)
        return self._owner_node, self.vaddr

    def _check(self, index: int) -> None:
        if index != 0:
            raise ValueError(f"scalar has one element, index {index}")

    def addr(self) -> Tuple[int, int]:
        """(node id, virtual address) of the scalar."""
        return self._owner_node, self.vaddr

    def read(self, index: int = 0, nelems: int = 1) -> np.ndarray:
        self._check(index)
        return self.data[:nelems].copy()

    def write(self, index, values=None) -> None:
        # Accepts both write(value) and the array-protocol
        # write(index, values).
        if values is None:
            self.data[0] = index
        else:
            self._check(index)
            self.data[0:1] = np.asarray(values, dtype=self.dtype).ravel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SharedScalar {self.handle} @thread{self.owner}>"
