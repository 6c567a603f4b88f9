"""Memory registration (pinning) arithmetic.

RDMA hardware reads and writes physical memory, so any buffer touched
by a one-sided operation must be *registered*: the OS pins its pages
and hands the NIC a translation.  The paper leans on three facts:

* registration is expensive and deregistration more so (section 3.3);
* LAPI caps the bytes behind a single registered handle (32 MB on the
  paper's machines, section 3.2) so large objects pin in chunks;
* GM caps the *total* DMAable memory (1 GB, section 3.3).

This module is the clock-free arithmetic: what a registration costs
and which physical address it yields.  The registry of pinned regions
is :class:`~repro.core.pinned_table.PinnedAddressTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Physical addresses are synthesized from virtual ones with a node
#: salt — "physical addresses in the format needed by RDMA operations"
#: (section 3) are opaque tokens as far as the model is concerned.
_PHYS_SALT = 0x7A00_0000_0000


def phys_base(node_id: int) -> int:
    """A pinned ``vaddr`` of node ``node_id`` is at physical address
    ``phys_base(node_id) + vaddr`` — distinct on every node."""
    return _PHYS_SALT + (node_id << 40)


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
