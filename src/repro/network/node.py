"""A cluster node: NIC, handler CPU, receive credits, memory,
registration state, progress engine.

The node owns the *hardware-ish* per-host state.  The PGAS runtime
attaches its own per-node structures (SVD replica, remote address
cache, pinned address table) on top — see
:class:`repro.runtime.runtime.Runtime`.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.pinned_table import PinnedAddressTable
from repro.memory.address_space import AddressSpace
from repro.network.params import TransportParams
from repro.sim.resource import Resource
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.progress import ProgressEngine


class Node:
    """One host of the simulated cluster."""

    def __init__(self, sim: Simulator, node_id: int,
                 params: TransportParams) -> None:
        self.sim = sim
        self.id = node_id
        self.params = params
        #: The shared network device.  Capacity 1: "four threads
        #: competing for the same network device" (section 4.6) is the
        #: amplification mechanism of the hybrid results.
        self.nic = Resource(sim, capacity=1, name=f"nic[{node_id}]")
        #: Serializes AM header handlers on the host CPU(s).  GM's
        #: single port lock gives capacity 1; LAPI services several
        #: handlers concurrently (params.handler_concurrency).
        self.handler_cpu = Resource(sim, capacity=params.handler_concurrency,
                                    name=f"handler_cpu[{node_id}]")
        #: Receive-buffer credits guarding eager payloads into this node.
        self.credits = Resource(sim, capacity=params.eager_credits,
                                name=f"credits[{node_id}]")
        self.memory = AddressSpace(node_id)
        #: The pinned address table: object pins and the pin-down cache.
        self.pins = PinnedAddressTable(
            node_id,
            cost_model=params.pin_cost,
            max_region_bytes=params.max_pin_region_bytes,
            max_total_bytes=params.max_pin_total_bytes,
            capacity_bytes=params.reg_cache_bytes,
        )
        #: Installed by the transport at construction time.
        self.progress: Optional["ProgressEngine"] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.id}>"
