"""The paper's contribution: the remote address cache (section 3).

Components:

* :class:`~repro.core.address_cache.RemoteAddressCache` — per-node
  bounded hash table ``(SVD handle, node id) -> remote base address``;
* :class:`~repro.core.pinned_table.PinnedAddressTable` — per-node
  registry of pinned memory, object pins and pin-down cache ("tagged
  by local virtual addresses and contains physical addresses in the
  format needed by RDMA operations");
* :mod:`~repro.core.policy` — pinning policies (greedy pin-everything
  of section 3.1 and the chunked variant of section 3.1's "more
  elaborated technique");
* :mod:`~repro.core.piggyback` — how a cache miss's fallback protocol
  carries the remote base address home.

The package is deliberately independent of :mod:`repro.runtime`: cache
keys are opaque hashables, costs are plain numbers charged by the
caller, so the cache can be unit-tested and trace-driven in isolation
(which is how the Figure 8 hit-rate study runs at 2048 threads).
"""

from repro.core.address_cache import EvictionPolicy, RemoteAddressCache
from repro.core.piggyback import PiggybackConfig, PiggybackMode
from repro.core.pinned_table import PinnedAddressTable
from repro.core.policy import PinningPolicy
from repro.core.stats import CacheStats

__all__ = [
    "RemoteAddressCache",
    "EvictionPolicy",
    "CacheStats",
    "PinnedAddressTable",
    "PinningPolicy",
    "PiggybackConfig",
    "PiggybackMode",
]
