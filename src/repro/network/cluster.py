"""Cluster assembly: nodes + topology + transport, from machine params.

This is the "hardware" a :class:`repro.runtime.runtime.Runtime` runs
on.  Build one with :func:`make_cluster`::

    from repro.network import make_cluster
    from repro.network.params import GM_MARENOSTRUM

    cluster = make_cluster(sim, GM_MARENOSTRUM, nnodes=32)
"""

from __future__ import annotations

from typing import List

from repro.network.node import Node
from repro.network.params import MachineParams, TransportParams
from repro.network.topology import Topology, make_topology
from repro.network.transport import GMTransport, LAPITransport, Transport
from repro.sim.simulator import Simulator


class Cluster:
    """The simulated machine: nodes, a fabric, and its transport."""

    def __init__(self, sim: Simulator, machine: MachineParams,
                 nnodes: int, transport_cls=None) -> None:
        if nnodes < 1:
            raise ValueError(f"cluster needs >= 1 node, got {nnodes}")
        self.sim = sim
        self.machine = machine
        self.params: TransportParams = machine.transport
        self.nodes: List[Node] = [
            Node(sim, i, machine.transport) for i in range(nnodes)
        ]
        self.topology: Topology = make_topology(machine, nnodes)
        cls = transport_cls or _transport_class_for(machine.transport)
        self.transport: Transport = cls(
            sim, machine.transport, self.topology, self.nodes
        )

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def set_link_state(self, src: int, dst: int, up: bool) -> None:
        """Administratively take a directed link out of service (or
        restore it).  Down links route via the transport's detour
        next-hop — the manual version of what the
        ``disable_and_repair`` repair policy does automatically."""
        if not (0 <= src < self.nnodes and 0 <= dst < self.nnodes):
            raise ValueError(f"no such link ({src}, {dst})")
        if up:
            self.transport.links_down.discard((src, dst))
        else:
            self.transport.links_down.add((src, dst))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Cluster {self.machine.name} nodes={self.nnodes} "
                f"transport={self.params.name}>")


def _transport_class_for(params: TransportParams):
    return {"gm": GMTransport, "lapi": LAPITransport}.get(
        params.name, Transport
    )


def make_cluster(sim: Simulator, machine: MachineParams,
                 nnodes: int) -> Cluster:
    """Convenience constructor mirroring the docs examples."""
    return Cluster(sim, machine, nnodes)
