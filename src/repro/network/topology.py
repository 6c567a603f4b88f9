"""Interconnect topologies.

Two fabrics from the paper:

* **Myrinet 3-level crossbar** (MareNostrum, section 4.1): "resulting
  in 3 different route lengths (1 hop, when two nodes are connected to
  the same crossbar aka. linecard, and 3 hops or 5 hops depending on
  the number of intervening linecards)".
* **IBM High-Performance Switch** (Power5 cluster, section 4.2):
  modelled as a flat low-latency fabric.

A topology maps a node pair to a one-way latency; serialization and
NIC effects live elsewhere (:mod:`repro.network.transport`).
"""

from __future__ import annotations

from array import array

from repro.network.params import MachineParams


class Topology:
    """Base: fixed one-way latency between distinct nodes."""

    def __init__(self, nnodes: int, base_us: float, per_hop_us: float) -> None:
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        self.nnodes = nnodes
        self.base_us = base_us
        self.per_hop_us = per_hop_us
        #: Per-source float64 latency rows (2 MiB at 512 nodes), each
        #: filled whole on first use: a Clos route walk is ~18 calls.
        self.rows: list = [None] * nnodes

    def hops(self, src: int, dst: int) -> int:
        """Number of switch hops between two nodes."""
        self._check(src)
        self._check(dst)
        return 0 if src == dst else self._hops(src, dst)

    def _hops(self, src: int, dst: int) -> int:
        """Hops between two distinct nodes, both known valid."""
        return 1

    def latency(self, src: int, dst: int) -> float:
        """One-way wire latency in µs."""
        n = self.nnodes
        if not (0 <= src < n and 0 <= dst < n):
            self._check(src)
            self._check(dst)
        return (self.rows[src] or self.row(src))[dst]

    def row(self, src: int) -> array:
        """One-way latencies from ``src`` to every node, in µs."""
        row = self.rows[src]
        if row is None:
            row = self.rows[src] = array("d", [
                0.0 if src == dst
                else self.base_us + self._hops(src, dst) * self.per_hop_us
                for dst in range(self.nnodes)])
        return row

    def _check(self, node: int) -> None:
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} out of range [0, {self.nnodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} nnodes={self.nnodes}>"


class MyrinetClos(Topology):
    """MareNostrum's 3-level crossbar: 1 / 3 / 5 hop routes.

    Nodes are packed ``nodes_per_linecard`` to a linecard and
    ``linecards_per_group`` linecards to a mid-stage group:

    * same linecard  → 1 hop;
    * same group     → 3 hops (up to the group crossbar and back);
    * across groups  → 5 hops (through the top stage).
    """

    def __init__(self, nnodes: int, base_us: float, per_hop_us: float,
                 nodes_per_linecard: int = 16,
                 linecards_per_group: int = 8) -> None:
        super().__init__(nnodes, base_us, per_hop_us)
        if nodes_per_linecard < 1 or linecards_per_group < 1:
            raise ValueError("linecard/group sizes must be >= 1")
        self.nodes_per_linecard = nodes_per_linecard
        self.linecards_per_group = linecards_per_group

    def linecard(self, node: int) -> int:
        return node // self.nodes_per_linecard

    def group(self, node: int) -> int:
        return self.linecard(node) // self.linecards_per_group

    def _hops(self, src: int, dst: int) -> int:
        if self.linecard(src) == self.linecard(dst):
            return 1
        if self.group(src) == self.group(dst):
            return 3
        return 5


class HPSSwitch(Topology):
    """IBM High-Performance Switch: uniform 2-hop fabric."""

    def _hops(self, src: int, dst: int) -> int:
        return 2


class FlatEthernet(Topology):
    """Commodity switched Ethernet: uniform single-switch fabric (the
    TCP/IP sockets transport's usual home) — the base class's one hop."""


class Torus3D(Topology):
    """BlueGene/L-style 3-D torus.

    Nodes are folded into the most cube-ish ``X x Y x Z`` box holding
    ``nnodes``; hop count is the wraparound Manhattan distance — the
    metric BG/L's adaptive-routed torus approximates (Almási et al.,
    "Design and implementation of message-passing services for the
    BlueGene/L supercomputer", cited as [1]).
    """

    def __init__(self, nnodes: int, base_us: float, per_hop_us: float) -> None:
        super().__init__(nnodes, base_us, per_hop_us)
        self.dims = self._fold(nnodes)

    @staticmethod
    def _fold(n: int) -> tuple:
        """Most-cubic X >= Y >= Z with X*Y*Z >= n."""
        best = (n, 1, 1)
        x = 1
        while x * x * x <= n:
            if n % x == 0:
                rest = n // x
                y = x
                while y * y <= rest:
                    if rest % y == 0:
                        cand = tuple(sorted((x, y, rest // y),
                                            reverse=True))
                        if max(cand) < max(best):
                            best = cand
                    y += 1
            x += 1
        return best

    def coords(self, node: int) -> tuple:
        x_dim, y_dim, z_dim = self.dims
        z, rem = divmod(node, x_dim * y_dim)
        y, x = divmod(rem, x_dim)
        return x, y, z

    def _hops(self, src: int, dst: int) -> int:
        total = 0
        for (a, b, dim) in zip(self.coords(src), self.coords(dst),
                               self.dims):
            d = abs(a - b)
            total += min(d, dim - d)    # wraparound link
        return max(1, total)


def make_topology(machine: MachineParams, nnodes: int) -> Topology:
    """Build the topology named by ``machine.topology_kind``."""
    kind = machine.topology_kind
    if kind == "myrinet-clos":
        return MyrinetClos(
            nnodes, machine.wire_base_us, machine.wire_per_hop_us,
            nodes_per_linecard=machine.nodes_per_linecard,
            linecards_per_group=machine.linecards_per_group,
        )
    if kind == "hps":
        return HPSSwitch(nnodes, machine.wire_base_us, machine.wire_per_hop_us)
    if kind == "flat":
        return FlatEthernet(nnodes, machine.wire_base_us,
                            machine.wire_per_hop_us)
    if kind == "torus3d":
        return Torus3D(nnodes, machine.wire_base_us,
                       machine.wire_per_hop_us)
    raise ValueError(f"unknown topology kind {kind!r}")
