"""Per-node memory substrate.

Models the three memory facts the paper's optimization interacts with:

* every node has its **own virtual address space**, so the same shared
  object has a *different* base address on every node (Figure 2 —
  that is why remote addresses must be discovered and cached at all);
* RDMA needs memory **registered/pinned**, an expensive OS operation
  with platform limits (LAPI: 32 MB per registered handle, GM: 1 GB of
  DMAable memory on the test machines — sections 3.2 and 3.3);
* GM-style transports amortize registration with a **pin-down cache**
  of registered regions with lazy deregistration (section 3.3,
  citing Tezuka et al.).

This package is the address space and the registration cost
arithmetic; the one registry of pinned regions, pin-down cache
included, is :class:`repro.core.pinned_table.PinnedAddressTable`.
Nothing here touches the simulator clock.
"""

from repro.memory.errors import (
    AllocationError,
    MemoryModelError,
    PinLimitError,
)
from repro.memory.address_space import AddressSpace
from repro.memory.pinning import PinCostModel

__all__ = [
    "AddressSpace",
    "PinCostModel",
    "AllocationError",
    "MemoryModelError",
    "PinLimitError",
]
