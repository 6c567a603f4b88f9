"""Cluster assembly: nodes + topology + transport, from machine params.

This is the "hardware" a :class:`repro.runtime.runtime.Runtime` runs
on.  Build one with :class:`Cluster`::

    from repro.network import Cluster
    from repro.network.params import GM_MARENOSTRUM

    cluster = Cluster(sim, GM_MARENOSTRUM, nnodes=32)
"""

from __future__ import annotations

from typing import List

from repro.network.node import Node
from repro.network.params import MachineParams, TransportParams
from repro.network.topology import Topology, make_topology
from repro.network.transport import Transport
from repro.sim.simulator import Simulator


class Cluster:
    """The simulated machine: nodes, a fabric, and its transport."""

    def __init__(self, sim: Simulator, machine: MachineParams,
                 nnodes: int) -> None:
        if nnodes < 1:
            raise ValueError(f"cluster needs >= 1 node, got {nnodes}")
        self.sim = sim
        self.machine = machine
        self.params: TransportParams = machine.transport
        self.nodes: List[Node] = [
            Node(sim, i, machine.transport) for i in range(nnodes)
        ]
        self.topology: Topology = make_topology(machine, nnodes)
        #: ``node(node_id)``: a C-level list lookup, no Python frame.
        self.node = self.nodes.__getitem__
        self.transport = Transport(
            sim, machine.transport, self.topology, self.nodes
        )

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Cluster {self.machine.name} nodes={self.nnodes} "
                f"transport={self.params.name}>")
