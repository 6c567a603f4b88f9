"""The Shared Variable Directory (section 2.1).

    "Shared objects are organized into a distributed symbol table
    called the Shared Variable Directory (SVD). ... On a system with n
    UPC threads the SVD consists of n + 1 partitions.  Partition k,
    0 <= k < n holds a list of those variables affine to thread k.
    The last partition (called the ALL partition) is reserved for
    shared variables allocated statically or through collective
    operations."

Each node runs an :class:`SVDReplica`.  Metadata (kind, layout) is
replicated everywhere; **local addresses exist only where the data
does** — "Addresses are only held for the local or ALL partitions"
(Figure 2).  That asymmetry is the whole reason remote accesses need
either a target-side handler (Figure 3a) or the address cache.

Consistency rules implemented as in section 2.1:

1. threads allocate/deallocate independently, updating their own
   partition and *notifying* the others (no locks);
2. each partition has a single writer; the ALL partition is written
   only by collective, already-synchronized operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime.errors import SVDError
from repro.runtime.handle import ALL_PARTITION, SVDHandle

#: Shared-object kinds the XLUPC runtime recognizes (section 2.1).
KIND_ARRAY = "array"
KIND_SCALAR = "scalar"
KIND_LOCK = "lock"
KINDS = (KIND_ARRAY, KIND_SCALAR, KIND_LOCK)


@dataclass(frozen=True)
class ControlBlock:
    """Universal metadata of one shared object (same on every node)."""

    handle: SVDHandle
    kind: str
    #: Total object size in bytes (sum over all nodes).
    total_bytes: int
    #: For arrays: elements / element size / blocksize (layout is
    #: reconstructed by the owner SharedArray; kept here so any node
    #: can do pointer arithmetic from the directory alone).
    nelems: int = 0
    elem_size: int = 0
    blocksize: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SVDError(f"unknown shared-object kind {self.kind!r}")
        if self.total_bytes < 0:
            raise SVDError(f"negative size for {self.handle}")


@dataclass
class SVDEntry:
    """A control block as seen by one replica: universal metadata plus
    this node's local base address (None when nothing is local)."""

    cb: ControlBlock
    local_base: Optional[int] = None
    local_bytes: int = 0
    #: Set False by deallocation; stale lookups then fail loudly.
    live: bool = True


class SVDReplica:
    """One node's copy of the directory."""

    __slots__ = ("node_id", "nthreads", "_entries", "lookups",
                 "notifications_received")

    def __init__(self, node_id: int, nthreads: int) -> None:
        self.node_id = node_id
        self.nthreads = nthreads
        self._entries: Dict[SVDHandle, SVDEntry] = {}
        #: Number of handle->address translations served (the cost the
        #: address cache exists to avoid, section 2.2).
        self.lookups = 0
        self.notifications_received = 0

    def __contains__(self, handle: SVDHandle) -> bool:
        e = self._entries.get(handle)
        return e is not None and e.live

    # -- updates ------------------------------------------------------

    def add(self, cb: ControlBlock, local_base: Optional[int] = None,
            local_bytes: int = 0, *, notified: bool = False) -> SVDEntry:
        """Install a control block in this replica.

        ``notified=True`` marks installs driven by another thread's
        allocation notification (rule 1 above) — tracked separately so
        tests can assert the notification traffic happened.
        """
        handle = cb.handle
        if handle.partition >= self.nthreads:
            raise SVDError(
                f"partition {handle.partition} out of range for "
                f"{self.nthreads} threads")
        existing = self._entries.get(handle)
        if existing is not None and existing.live:
            raise SVDError(f"{handle} already present in replica "
                           f"{self.node_id}")
        entry = SVDEntry(cb=cb, local_base=local_base,
                         local_bytes=local_bytes)
        self._entries[handle] = entry
        if notified:
            self.notifications_received += 1
        return entry

    def remove(self, handle: SVDHandle) -> SVDEntry:
        """Deallocate: the entry dies but stays for error reporting."""
        entry = self._require(handle)
        entry.live = False
        return entry

    # -- lookups ---------------------------------------------------------

    def _require(self, handle: SVDHandle) -> SVDEntry:
        entry = self._entries.get(handle)
        if entry is None:
            raise SVDError(
                f"replica {self.node_id}: unknown handle {handle}")
        if not entry.live:
            raise SVDError(
                f"replica {self.node_id}: use-after-free of {handle}")
        return entry

    def control_block(self, handle: SVDHandle) -> ControlBlock:
        return self._require(handle).cb

    def lookup_local(self, handle: SVDHandle) -> int:
        """Handle -> local base address *on this node* (the home-node
        translation of section 2.2).  Counts as a directory lookup."""
        entry = self._require(handle)
        self.lookups += 1
        if entry.local_base is None:
            raise SVDError(
                f"replica {self.node_id}: {handle} has no local storage "
                "here — translation only works on the home node")
        return entry.local_base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = sum(1 for e in self._entries.values() if e.live)
        return f"<SVDReplica node={self.node_id} live={live}>"


class HandleAllocator:
    """Issues fresh (partition, index) pairs.

    Thread partitions have a single writer each; the ALL partition is
    advanced only inside collectives.  Keeping the counters in one
    place mirrors the determinism the paper gets from synchronized
    collective allocation.
    """

    __slots__ = ("nthreads", "_next")

    def __init__(self, nthreads: int) -> None:
        self.nthreads = nthreads
        self._next: Dict[int, int] = {}

    def fresh(self, partition: int) -> SVDHandle:
        if partition != ALL_PARTITION and not 0 <= partition < self.nthreads:
            raise SVDError(f"bad partition {partition} for "
                           f"{self.nthreads} threads")
        idx = self._next.get(partition, 0)
        self._next[partition] = idx + 1
        return SVDHandle(partition=partition, index=idx)
