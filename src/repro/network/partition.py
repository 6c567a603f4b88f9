"""Topology -> shard partitioning and lookahead derivation.

The sharded PDES core (:mod:`repro.sim.shard`) needs two things from
the network layer:

* a **partition**: which nodes each shard owns.  We cut the node range
  into contiguous blocks because every fabric we model packs nearby
  node indices close in the topology (same Myrinet linecard, adjacent
  torus coordinates), so contiguous blocks maximize *intra*-shard
  traffic and push the minimum *cross*-shard latency — the lookahead —
  as high as the topology allows;
* a **lookahead matrix** ``L[a][b]``: a certified lower bound on the
  one-way wire latency of any message a node in shard ``a`` can send a
  node in shard ``b``.  Conservative sync is only correct if every
  cross-shard message honours ``latency >= L``, so we compute it as the
  exact minimum of :meth:`Topology.latency` over cross-shard node
  pairs, not a heuristic.

On MareNostrum's 3-level crossbar (16 nodes/linecard), splitting 256
nodes 4 ways yields 64-node shards spanning 4 linecards each, so the
cheapest cross-shard route is 3 hops: ``L = 1.6 + 3*0.4 = 2.8 µs`` —
comfortably above the sub-µs event spacing inside a shard, which is
what makes the window advance profitable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.network.params import MachineParams
from repro.network.topology import (FlatEthernet, HPSSwitch, MyrinetClos,
                                    Topology, make_topology)


@dataclass(frozen=True)
class NodePartition:
    """Contiguous block partition of ``nnodes`` into ``nshards``.

    Shard ``i`` owns ``[bounds[i], bounds[i+1])``.  The split is the
    balanced one (sizes differ by at most 1, larger blocks first) so a
    given ``(nnodes, nshards)`` always produces the same layout — part
    of the determinism contract.
    """

    nnodes: int
    nshards: int
    bounds: Tuple[int, ...]

    def shard_of(self, node: int) -> int:
        """Owning shard of ``node`` (O(1) — no bisect needed for the
        balanced split)."""
        if not 0 <= node < self.nnodes:
            raise ValueError(
                f"node {node} out of range [0, {self.nnodes})")
        big = self.nnodes % self.nshards          # shards with size+1
        size = self.nnodes // self.nshards
        cut = big * (size + 1)
        if node < cut:
            return node // (size + 1)
        return big + (node - cut) // size

    def range_of(self, shard: int) -> Tuple[int, int]:
        """``[lo, hi)`` node range owned by ``shard``."""
        if not 0 <= shard < self.nshards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.nshards})")
        return self.bounds[shard], self.bounds[shard + 1]

    def nodes_of(self, shard: int) -> range:
        lo, hi = self.range_of(shard)
        return range(lo, hi)


def partition_nodes(nnodes: int, nshards: int) -> NodePartition:
    """Balanced contiguous partition of ``nnodes`` into ``nshards``."""
    if nnodes < 1:
        raise ValueError(f"need at least one node, got {nnodes}")
    if not 1 <= nshards <= nnodes:
        raise ValueError(
            f"nshards must be in [1, {nnodes}], got {nshards}")
    size, big = divmod(nnodes, nshards)
    bounds = [0]
    for i in range(nshards):
        bounds.append(bounds[-1] + size + (1 if i < big else 0))
    return NodePartition(nnodes=nnodes, nshards=nshards,
                         bounds=tuple(bounds))


def _intervals_touch(lo_a: int, hi_a: int, lo_b: int, hi_b: int) -> bool:
    return hi_a >= lo_b and hi_b >= lo_a


def _min_cross_latency(topo: Topology, a: range, b: range) -> float:
    """Exact ``min latency(src in a, dst in b)`` for disjoint blocks.

    The structured fabrics admit closed forms (a pairwise scan at 4096
    nodes would cost millions of ``latency`` calls per shard pair):

    * uniform fabrics (HPS, flat Ethernet, base) — any cross pair;
    * Myrinet Clos — hop count depends only on whether the blocks'
      linecard / group index intervals intersect, and contiguous node
      blocks map to contiguous linecard and group intervals.

    Anything else (the torus's wraparound breaks contiguity) falls back
    to the exact scan with a 1-hop-floor early exit.
    """
    if isinstance(topo, MyrinetClos):
        lc = (topo.linecard(a[0]), topo.linecard(a[-1]),
              topo.linecard(b[0]), topo.linecard(b[-1]))
        if _intervals_touch(*lc):
            hops = 1
        else:
            gr = (topo.group(a[0]), topo.group(a[-1]),
                  topo.group(b[0]), topo.group(b[-1]))
            hops = 3 if _intervals_touch(*gr) else 5
        return topo.base_us + hops * topo.per_hop_us
    if type(topo) in (Topology, HPSSwitch, FlatEthernet):
        return topo.latency(a[0], b[0])
    floor = topo.base_us + topo.per_hop_us
    best = float("inf")
    for src in a:
        for dst in b:
            lat = topo.latency(src, dst)
            if lat < best:
                best = lat
                if lat <= floor:
                    return lat
    return best


def lookahead_matrix(machine: MachineParams, nnodes: int,
                     partition: NodePartition) -> List[List[float]]:
    """Per-shard-pair lookahead from the machine's wire latencies.

    ``L[a][b]`` = minimum one-way latency over cross-shard node pairs.
    Diagonal entries are 0 (unused: a shard never syncs with itself).
    The matrix is what :class:`repro.sim.sync.SyncCoordinator` consumes
    and what :meth:`repro.sim.shard.ShardContext.send` validates
    against.
    """
    if partition.nnodes != nnodes:
        raise ValueError(
            f"partition covers {partition.nnodes} nodes, not {nnodes}")
    topo = make_topology(machine, nnodes)
    S = partition.nshards
    la = [[0.0] * S for _ in range(S)]
    for a in range(S):
        for b in range(S):
            if a == b:
                continue
            la[a][b] = _min_cross_latency(
                topo, partition.nodes_of(a), partition.nodes_of(b))
    return la

