"""Conservative time synchronization for the sharded PDES core.

The sharded simulator (:mod:`repro.sim.shard`) partitions a cluster
into per-node-group shards, each advancing its own pooled event loop.
This module is the *synchronization protocol* those shards follow:
:class:`SyncCoordinator` is a pure ``reports in -> plans out`` round
engine, so every horizon and release time is a function of the
reports alone — the mechanism behind the sharded core's determinism
guarantee (same workload, same shard count: bit-identical virtual-time
results).

The protocol is a **barrier-window (bounded-lag / YAWNS-style) advance**
rather than null messages:

* every round, shard *i* reports its earliest pending event time
  ``t_i`` plus the messages it produced during the previous grain;
* the coordinator routes the messages and computes each shard's safe
  **horizon**::

      horizon_i = min over j != i of (t_j_effective + L[j][i])

  where ``L[j][i]`` is the *lookahead*: a lower bound on the latency of
  any message shard ``j`` can send shard ``i`` (derived from per-hop
  wire latency — see :func:`repro.network.partition.lookahead_matrix`)
  and ``t_j_effective`` folds in messages and collective releases being
  delivered to ``j`` this round **and** the earliest time ``j`` could
  be woken by a message sent during this very window (the transitive
  fixpoint ``eff[j] = min(eff[j], min_k(eff[k] + L[k][j]))`` — without
  it a drained shard reads as ``inf`` and its reply to a write we are
  about to send would land in our past);
* each shard then processes every local event strictly below its
  horizon.  Any message sent during that grain is sent at some time
  ``t >= t_j_effective`` and arrives at ``t + latency >= horizon_i``,
  so no shard ever receives a message in its past — conservative by
  construction, no rollback ever needed.

Why windows and not null messages: with ``S`` shards a null-message
scheme costs ``O(S^2)`` messages *per advance* and stalls on low
lookahead cycles; the windowed all-reduce is one gather/scatter per
round through the coordinator, which for the small shard counts a
single host runs (2–16) is both cheaper and much simpler to prove
deterministic.  docs/PERFORMANCE.md discusses the trade-off.

Global collectives (the ``upc_barrier`` at the end of every DIS
stressmark) are resolved by the coordinator: shards post arrival
counts and times; once all expected participants arrived, the release
fires at ``max(arrival times) + cost`` in every shard — exactly the
pooled core's counter-barrier semantics, so sharded and pooled runs
release at identical virtual times.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

INF = float("inf")


class SyncError(Exception):
    """Protocol violation (bad lookahead, partial barrier, ...)."""


class SyncDeadlock(SyncError):
    """Every shard drained while a collective was still incomplete."""


#: A cross-shard message is a plain tuple
#: ``(arrival, src, seq, dst, kind, nbytes, payload)``.  ``arrival`` is
#: absolute virtual time — the sender stamped it as ``send_time + wire
#: latency``, the latency validated against the lookahead at send time.
#: ``(src, seq)`` is unique, so the tuple's natural sort order *is* the
#: delivery order ``(arrival, src, seq)`` — independent of the order
#: shards report in — and comparison never reaches the payload.
#: ``nbytes`` is the modeled wire size (metrics only; the coordinator
#: accounts each batch's pickled size as ``channel_bytes``).
WireMessage = Tuple[float, int, int, int, str, int, Any]


@dataclass(frozen=True)
class BarrierPost:
    """Arrival notifications for one named global collective."""

    name: str
    #: Participants that arrived at this shard since the last report.
    count: int
    #: Latest local arrival time among them.
    t_last: float
    #: Total participants expected across all shards.
    expected: int
    #: Network cost charged between last arrival and release.
    cost: float


@dataclass
class ShardReport:
    """What a shard tells the coordinator at a round boundary."""

    shard: int
    #: Earliest pending local event time (``inf`` when drained).
    next_time: float
    #: Messages sent since the last report, one list per destination
    #: shard (the sender validated every destination).
    sent: List[List[WireMessage]] = field(default_factory=list)
    barriers: List[BarrierPost] = field(default_factory=list)


@dataclass
class GrainPlan:
    """What the coordinator tells a shard to do next."""

    horizon: float
    deliver: List[WireMessage] = field(default_factory=list)
    #: ``(barrier name, absolute release time)`` pairs.
    releases: List[Tuple[str, float]] = field(default_factory=list)
    done: bool = False
    #: Coordinator round number that produced this plan — the global
    #: id the flight recorder's ``sync_round`` annotations carry, so
    #: grains from different shards line up in the merged timeline.
    round: int = 0


@dataclass
class ShardMetrics:
    """Per-shard accounting surfaced through ``metrics.summary()``.

    Lives in the sim layer (not :mod:`repro.runtime.metrics`) so the
    sharded core needs no runtime import; the runtime merges a list of
    these into its summary rollups.
    """

    shard: int = 0
    #: Nodes this shard owns (``[lo, hi)``).
    node_lo: int = 0
    node_hi: int = 0
    events: int = 0
    #: Synchronization rounds this shard participated in.
    grains: int = 0
    #: Rounds in which the shard had nothing to do before its horizon —
    #: pure conservative-sync stalls.
    stall_grains: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0
    #: Pickled size of every delivery batch addressed to this shard
    #: (coordinator-side accounting: what a batch would cost to ship).
    channel_bytes: int = 0
    #: Peak pending-event backlog observed at grain boundaries.
    max_backlog: int = 0
    final_clock_us: float = 0.0
    #: Wall-clock the shard spent executing grains (excludes the
    #: coordinator's routing and the other shards' grains).
    busy_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "nodes": [self.node_lo, self.node_hi],
            "events": self.events,
            "grains": self.grains,
            "stall_grains": self.stall_grains,
            "msgs_sent": self.msgs_sent,
            "msgs_recv": self.msgs_recv,
            "channel_bytes": self.channel_bytes,
            "max_backlog": self.max_backlog,
            "final_clock_us": self.final_clock_us,
            "busy_s": round(self.busy_s, 6),
        }


class _BarrierState:
    """Coordinator-side tally for one named collective."""

    __slots__ = ("expected", "cost", "arrived", "t_last", "released")

    def __init__(self, expected: int, cost: float) -> None:
        self.expected = expected
        self.cost = cost
        self.arrived = 0
        self.t_last = -INF
        self.released = False


def normalize_lookahead(lookahead, nshards: int) -> List[List[float]]:
    """A scalar or matrix lookahead -> validated ``S x S`` matrix."""
    if isinstance(lookahead, (int, float)):
        la = [[float(lookahead)] * nshards for _ in range(nshards)]
    else:
        la = [[float(x) for x in row] for row in lookahead]
    if len(la) != nshards or any(len(row) != nshards for row in la):
        raise SyncError(
            f"lookahead matrix must be {nshards}x{nshards}")
    for i in range(nshards):
        for j in range(nshards):
            if i != j and la[i][j] <= 0.0:
                raise SyncError(
                    f"lookahead[{i}][{j}] must be > 0 for conservative "
                    f"sync (got {la[i][j]})")
    return la


class SyncCoordinator:
    """Pure-state round engine: ``reports in -> plans out``."""

    def __init__(self, lookahead, nshards: int) -> None:
        self.nshards = nshards
        self.lookahead = normalize_lookahead(lookahead, nshards)
        self.rounds = 0
        self._barriers: Dict[str, _BarrierState] = {}
        #: Per-destination pickled size of the delivery batches.
        self.channel_bytes: List[int] = [0] * nshards
        self.msgs_routed = 0

    # -- collectives ----------------------------------------------------

    def _post(self, post: BarrierPost) -> None:
        st = self._barriers.get(post.name)
        if st is None:
            st = _BarrierState(post.expected, post.cost)
            self._barriers[post.name] = st
        elif st.expected != post.expected:
            raise SyncError(
                f"collective {post.name!r}: expected-count mismatch "
                f"({st.expected} vs {post.expected})")
        if st.released:
            raise SyncError(
                f"collective {post.name!r}: arrival after release "
                "(reuse a fresh name per generation)")
        st.arrived += post.count
        if post.t_last > st.t_last:
            st.t_last = post.t_last
        if st.arrived > st.expected:
            raise SyncError(
                f"collective {post.name!r}: {st.arrived} arrivals for "
                f"{st.expected} expected")

    def _drain_releases(self) -> List[Tuple[str, float]]:
        out = []
        for name, st in self._barriers.items():
            if not st.released and st.arrived == st.expected:
                st.released = True
                out.append((name, st.t_last + st.cost))
        return out

    def pending_collectives(self) -> List[str]:
        return sorted(n for n, st in self._barriers.items()
                      if not st.released)

    # -- the round ------------------------------------------------------

    def round(self, reports: Sequence[ShardReport]) -> List[GrainPlan]:
        """One synchronization round (see module docstring)."""
        S = self.nshards
        if len(reports) != S:
            raise SyncError(f"expected {S} reports, got {len(reports)}")
        self.rounds += 1

        # Route messages; delivery lists are sorted by the total
        # order, whatever order the reports came in.
        deliver: List[List[WireMessage]] = [[] for _ in range(S)]
        for r in reports:
            if len(r.sent) > S:
                raise SyncError(f"message to unknown shard {S}")
            for batch, out in zip(deliver, r.sent):
                batch += out
            for post in r.barriers:
                self._post(post)
        for batch in deliver:
            batch.sort()
            self.msgs_routed += len(batch)
        releases = self._drain_releases()

        # Effective floor per shard: its own queue, incoming messages,
        # and collective releases all bound where it can next act.
        eff = [INF] * S
        for r in reports:
            if r.next_time < eff[r.shard]:
                eff[r.shard] = r.next_time
        for i, batch in enumerate(deliver):
            if batch and batch[0][0] < eff[i]:
                eff[i] = batch[0][0]
        if releases:
            t_rel = min(t for _, t in releases)
            # Releases are broadcast: every shard may act at t_rel.
            for i in range(S):
                eff[i] = min(eff[i], t_rel)

        # A shard with an empty queue is not inert: a message sent
        # *during this window* can wake it and make it reply — so its
        # floor is also bounded by the earliest message any shard could
        # send it, transitively (the classic conditional-event chain:
        # i sends at eff[i], j's reply lands at eff[i]+L[i][j]+L[j][i],
        # which must stay >= i's horizon).  Relax to the least fixpoint
        #     eff[j] = min(eff[j], min_k!=j (eff[k] + L[k][j]))
        # — Bellman-Ford over the lookahead graph; strictly positive
        # off-diagonal lookahead guarantees convergence.
        changed = True
        while changed:
            changed = False
            for j in range(S):
                floor = eff[j]
                for k in range(S):
                    if k != j:
                        cand = eff[k] + self.lookahead[k][j]
                        if cand < floor:
                            floor = cand
                if floor < eff[j]:
                    eff[j] = floor
                    changed = True

        if min(eff) == INF:
            stuck = self.pending_collectives()
            if stuck:
                raise SyncDeadlock(
                    "all shards drained with incomplete collective(s) "
                    f"{stuck}: "
                    + "; ".join(
                        f"{n}: {self._barriers[n].arrived}/"
                        f"{self._barriers[n].expected} arrived"
                        for n in stuck))
            return [GrainPlan(horizon=INF, done=True, round=self.rounds)
                    for _ in range(S)]

        plans = []
        for i in range(S):
            horizon = INF
            for j in range(S):
                if j != i and eff[j] + self.lookahead[j][i] < horizon:
                    horizon = eff[j] + self.lookahead[j][i]
            batch = deliver[i]
            if batch:
                self.channel_bytes[i] += len(
                    pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            plans.append(GrainPlan(horizon=horizon, deliver=batch,
                                   releases=releases, round=self.rounds))
        return plans
