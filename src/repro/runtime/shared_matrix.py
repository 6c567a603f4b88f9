"""Multiblocked (2-D tiled) shared arrays.

Section 2.1 lists "shared arrays (including multi-blocked array [7])"
among the object kinds the XLUPC runtime manages; [7] is Barton et
al., *Multidimensional Blocking Factors in UPC* (LCPC 2007).  A
multiblocked array carves an R x C matrix into ``tile_r x tile_c``
tiles and deals the tiles round-robin (row-major tile order) over the
UPC threads — the layout dense-linear-algebra UPC codes use.

Implementation: the matrix is stored *tile-major* inside an ordinary
:class:`~repro.runtime.shared_array.SharedArray` whose block size is
exactly one tile, so every existing mechanism (SVD control block,
arena addressing, address cache, GET/PUT protocols) applies untouched;
this class adds the (row, col) <-> linear translation, validation, and
a dense view for verification.
"""

from __future__ import annotations

from typing import Tuple, TYPE_CHECKING

import numpy as np

from repro.runtime.errors import LayoutError
from repro.runtime.handle import SVDHandle
from repro.runtime.layout import BlockCyclicLayout
from repro.runtime.shared_array import SharedArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class SharedMatrix(SharedArray):
    """An R x C matrix tiled ``tile_r x tile_c`` over the threads."""

    def __init__(self, runtime: "Runtime", handle: SVDHandle,
                 rows: int, cols: int, tile_r: int, tile_c: int,
                 dtype: np.dtype) -> None:
        if rows <= 0 or cols <= 0:
            raise LayoutError(f"bad matrix shape {rows}x{cols}")
        if tile_r <= 0 or tile_c <= 0:
            raise LayoutError(f"bad tile shape {tile_r}x{tile_c}")
        if rows % tile_r or cols % tile_c:
            raise LayoutError(
                f"matrix {rows}x{cols} not divisible into "
                f"{tile_r}x{tile_c} tiles")
        self.rows = rows
        self.cols = cols
        self.tile_r = tile_r
        self.tile_c = tile_c
        self.tiles_r = rows // tile_r
        self.tiles_c = cols // tile_c
        dt = np.dtype(dtype)
        layout = BlockCyclicLayout(
            nelems=rows * cols, elem_size=dt.itemsize,
            blocksize=tile_r * tile_c, nthreads=runtime.nthreads)
        super().__init__(runtime, handle, layout, dt)

    # -- index translation -------------------------------------------------

    def linear(self, r: int, c: int) -> int:
        """(row, col) -> tile-major linear index in the backing array."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise LayoutError(
                f"({r}, {c}) outside {self.rows}x{self.cols} matrix")
        tile = (r // self.tile_r) * self.tiles_c + (c // self.tile_c)
        within = (r % self.tile_r) * self.tile_c + (c % self.tile_c)
        return tile * self.tile_r * self.tile_c + within

    def rc(self, linear: int) -> Tuple[int, int]:
        """Inverse of :meth:`linear`."""
        tile_elems = self.tile_r * self.tile_c
        tile, within = divmod(linear, tile_elems)
        ti, tj = divmod(tile, self.tiles_c)
        wr, wc = divmod(within, self.tile_c)
        return ti * self.tile_r + wr, tj * self.tile_c + wc

    # -- convenience --------------------------------------------------------

    def owner_of(self, r: int, c: int) -> int:
        """UPC thread owning element (r, c) — round-robin over tiles."""
        return self.owner_thread(self.linear(r, c))

    def row_segment(self, r: int, c0: int, n: int) -> Tuple[int, int]:
        """(linear start, count) for matrix row ``r`` columns
        ``[c0, c0+n)`` — valid only while inside one tile."""
        if c0 // self.tile_c != (c0 + n - 1) // self.tile_c:
            raise LayoutError(
                f"row segment [{c0}, {c0 + n}) crosses a tile column "
                "boundary; split at multiples of "
                f"tile_c={self.tile_c}")
        return self.linear(r, c0), n

    def to_dense(self) -> np.ndarray:
        """A dense (rows, cols) copy of the data plane."""
        out = np.empty((self.rows, self.cols), dtype=self.dtype)
        tile_elems = self.tile_r * self.tile_c
        for tile in range(self.tiles_r * self.tiles_c):
            ti, tj = divmod(tile, self.tiles_c)
            chunk = self.data[tile * tile_elems:(tile + 1) * tile_elems]
            out[ti * self.tile_r:(ti + 1) * self.tile_r,
                tj * self.tile_c:(tj + 1) * self.tile_c] = \
                chunk.reshape(self.tile_r, self.tile_c)
        return out

    def from_dense(self, dense: np.ndarray) -> None:
        """Load a dense (rows, cols) array into the data plane
        (untimed input generation)."""
        dense = np.asarray(dense, dtype=self.dtype)
        if dense.shape != (self.rows, self.cols):
            raise LayoutError(
                f"expected shape {(self.rows, self.cols)}, "
                f"got {dense.shape}")
        tile_elems = self.tile_r * self.tile_c
        for tile in range(self.tiles_r * self.tiles_c):
            ti, tj = divmod(tile, self.tiles_c)
            block = dense[ti * self.tile_r:(ti + 1) * self.tile_r,
                          tj * self.tile_c:(tj + 1) * self.tile_c]
            self.data[tile * tile_elems:(tile + 1) * tile_elems] = \
                block.ravel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SharedMatrix {self.handle} {self.rows}x{self.cols} "
                f"tiles {self.tile_r}x{self.tile_c} dtype={self.dtype}>")
