"""Network substrate: topologies, NICs, and the GM / LAPI transports.

This package replaces the paper's physical fabrics (Myrinet + GM on
MareNostrum, HPS + LAPI on the Power5 cluster) with discrete-event
cost models.  See DESIGN.md section 2 for the substitution argument
and :mod:`repro.network.params` for the calibrated constants.
"""

from repro.network.cluster import Cluster
from repro.network.node import Node
from repro.network.params import (
    BGL_TORUS,
    BGL_TRANSPORT,
    GM_MARENOSTRUM,
    GM_TRANSPORT,
    INTERRUPT,
    LAPI_POWER5,
    LAPI_TRANSPORT,
    MACHINES,
    POLLING,
    TCP_CLUSTER,
    TCP_TRANSPORT,
    MachineParams,
    TransportParams,
)
from repro.network.partition import (
    NodePartition,
    lookahead_matrix,
    min_lookahead,
    partition_nodes,
)
from repro.network.progress import (
    InterruptProgress,
    PollingProgress,
    ProgressEngine,
)
from repro.network.topology import (
    FlatEthernet,
    HPSSwitch,
    MyrinetClos,
    Topology,
    Torus3D,
    make_topology,
)
from repro.network.transport import Transport

__all__ = [
    "Cluster",
    "Node",
    "MachineParams",
    "TransportParams",
    "GM_MARENOSTRUM",
    "LAPI_POWER5",
    "TCP_CLUSTER",
    "BGL_TORUS",
    "GM_TRANSPORT",
    "LAPI_TRANSPORT",
    "TCP_TRANSPORT",
    "BGL_TRANSPORT",
    "MACHINES",
    "POLLING",
    "INTERRUPT",
    "Topology",
    "MyrinetClos",
    "HPSSwitch",
    "FlatEthernet",
    "Torus3D",
    "make_topology",
    "Transport",
    "ProgressEngine",
    "PollingProgress",
    "InterruptProgress",
    "NodePartition",
    "partition_nodes",
    "lookahead_matrix",
    "min_lookahead",
]
