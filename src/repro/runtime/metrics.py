"""Per-run metrics collected by the runtime.

The experiment harness consumes these to produce the paper's numbers:
execution-time improvements (Figures 6, 9), cache hit rates
(Figure 8), and the miss-overhead claim of section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.stats import CacheStats
from repro.sim.sync import ShardMetrics
from repro.util.quantiles import LatencyDigest
from repro.util.stats import RunningStats


@dataclass
class RuntimeMetrics:
    """Operation-level accounting for one runtime instance."""

    #: Latency (µs) of blocking GETs, by resolution class.
    get_local: RunningStats = field(default_factory=RunningStats)
    get_shm: RunningStats = field(default_factory=RunningStats)
    get_remote: RunningStats = field(default_factory=RunningStats)
    #: Initiator-visible latency of PUTs.
    put_local: RunningStats = field(default_factory=RunningStats)
    put_shm: RunningStats = field(default_factory=RunningStats)
    put_remote: RunningStats = field(default_factory=RunningStats)
    #: Exact percentiles of remote GET latency (order statistics of
    #: the recorded samples) — the tail view that exposed Field's
    #: overhang waits (§4.6).
    get_remote_digest: LatencyDigest = field(default_factory=LatencyDigest)

    #: Remote ops by protocol actually used.
    rdma_gets: int = 0
    rdma_puts: int = 0
    am_gets: int = 0
    am_puts: int = 0

    barriers: int = 0
    allocations: int = 0
    frees: int = 0
    lock_acquires: int = 0

    #: Service-layer (:mod:`repro.service`) operation counts, split by
    #: the access path that served them.  ``kv_rpc_ops`` counts ops
    #: served by the AM/RPC path (handler at the home node);
    #: ``kv_onesided_ops`` counts ops served by one-sided transfers.
    kv_gets: int = 0
    kv_puts: int = 0
    kv_dels: int = 0
    kv_mgets: int = 0
    kv_rpc_ops: int = 0
    kv_onesided_ops: int = 0
    #: One-sided ops a ``path_failover`` repair policy flipped to the
    #: RPC path (subset of ``kv_rpc_ops``).
    kv_failover_ops: int = 0

    compute_time_us: float = 0.0

    #: Bulk-transfer engine accounting (memget/memput/gather through
    #: :class:`~repro.runtime.bulk.BulkEngine`).
    bulk_transfers: int = 0
    #: Affine segments the engine planned (wire + intra-node).
    bulk_segments: int = 0
    #: Remote wire messages actually issued.
    bulk_messages: int = 0
    #: Segments that merged into an already-open message.
    bulk_coalesced_segments: int = 0
    #: Modeled control-message bytes avoided by coalescing (one
    #: request/reply pair per merged segment).
    bulk_bytes_saved: int = 0
    #: In-flight remote messages sampled at each issue — the achieved
    #: pipeline depth (mean/max).
    bulk_depth: RunningStats = field(default_factory=RunningStats)

    #: Reliability-layer accounting (see :mod:`repro.faults`): AM
    #: attempts re-issued after a timeout, timeouts observed (AM and
    #: RDMA), RDMA completions that timed out and degraded to the AM
    #: path, handles permanently degraded after a pin failure, and raw
    #: fault-plane injections.  All zero on a healthy (fault-free) run.
    retries: int = 0
    timeouts: int = 0
    rdma_timeouts: int = 0
    pin_degrades: int = 0
    faults_injected: int = 0
    #: Repair-policy actions applied (link tuned / disabled / failed
    #: over and their reversals).
    policy_actions: int = 0

    #: Per-link reliability accounting: (src, dst) -> count.  Feeds
    #: the top-k noisy-links rollup in :meth:`summary` and the
    #: ``repro report`` shard rollups.
    link_timeouts: Dict = field(default_factory=dict)
    link_retries: Dict = field(default_factory=dict)

    #: Peak AM-handler backlog observed by any polling progress engine
    #: (handlers queued while no thread was polling, §4.6) — updated on
    #: every enqueue transition, not just at sampler ticks.
    max_backlog: int = 0

    #: Per-shard accounting when the run used the sharded PDES core
    #: (``ShardedSimulator``); empty for single-simulator runs.
    shards: List[ShardMetrics] = field(default_factory=list)

    def attach_shards(self, shard_metrics: List[ShardMetrics]) -> None:
        """Adopt the per-shard metrics of a sharded run."""
        self.shards = list(shard_metrics)

    def link_timeout(self, src: int, dst: int) -> None:
        key = (src, dst)
        self.link_timeouts[key] = self.link_timeouts.get(key, 0) + 1

    def link_retry(self, src: int, dst: int) -> None:
        key = (src, dst)
        self.link_retries[key] = self.link_retries.get(key, 0) + 1

    def noisy_links(self, k: int = 5) -> List[Dict]:
        """Top-``k`` links by (timeouts, retries) — the triage list a
        repair policy would act on, and what ``repro report`` renders
        in its shard rollups."""
        keys = set(self.link_timeouts) | set(self.link_retries)
        rows = [{"src": src, "dst": dst,
                 "timeouts": self.link_timeouts.get((src, dst), 0),
                 "retries": self.link_retries.get((src, dst), 0)}
                for src, dst in keys]
        rows.sort(key=lambda r: (-r["timeouts"], -r["retries"],
                                 r["src"], r["dst"]))
        return rows[:k]

    def record_get(self, kind: str, latency_us: float) -> None:
        if kind == "remote":
            self.get_remote.add(latency_us)
            self.get_remote_digest.add(latency_us)
        elif kind == "local":
            self.get_local.add(latency_us)
        else:
            self.get_shm.add(latency_us)

    def record_put(self, kind: str, latency_us: float) -> None:
        if kind == "remote":
            self.put_remote.add(latency_us)
        elif kind == "local":
            self.put_local.add(latency_us)
        else:
            self.put_shm.add(latency_us)

    @property
    def remote_ops(self) -> int:
        return self.rdma_gets + self.rdma_puts + self.am_gets + self.am_puts

    @property
    def rdma_fraction(self) -> float:
        """Share of remote operations that went over RDMA — a direct
        view of how effective the address cache was."""
        n = self.remote_ops
        return (self.rdma_gets + self.rdma_puts) / n if n else 0.0

    def shard_summary(self) -> Dict[str, float]:
        """Rollups across shards, folded with the same
        :class:`RunningStats` merge the latency paths use."""
        ev = RunningStats()
        ev.extend(s.events for s in self.shards)
        stalls = RunningStats()
        stalls.extend(s.stall_grains for s in self.shards)
        backlog = RunningStats()
        backlog.extend(s.max_backlog for s in self.shards)
        return {
            "shards": len(self.shards),
            "shard_events_total": int(ev.total),
            "shard_events_mean": ev.mean,
            "shard_events_max": int(ev.max) if ev.n else 0,
            "sync_rounds": max((s.grains for s in self.shards),
                               default=0),
            "sync_stall_grains": int(stalls.total),
            "sync_stall_mean": stalls.mean,
            "channel_bytes": sum(s.channel_bytes for s in self.shards),
            "channel_msgs": sum(s.msgs_sent for s in self.shards),
            "shard_max_backlog": int(backlog.max) if backlog.n else 0,
            "shard_final_clock_us": max(
                (s.final_clock_us for s in self.shards), default=0.0),
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        out = self._base_summary()
        if self.shards:
            out.update(self.shard_summary())
            out["max_backlog"] = max(
                int(out["max_backlog"]),
                max(s.max_backlog for s in self.shards))
        return out

    def _base_summary(self) -> Dict[str, float]:
        return {
            "remote_gets": self.get_remote.n,
            "remote_get_mean_us": self.get_remote.mean,
            "remote_get_p50_us": self.get_remote_digest.p50,
            "remote_get_p99_us": self.get_remote_digest.p99,
            "remote_puts": self.put_remote.n,
            "remote_put_mean_us": self.put_remote.mean,
            "shm_accesses": self.get_shm.n + self.put_shm.n,
            "local_accesses": self.get_local.n + self.put_local.n,
            "rdma_gets": self.rdma_gets,
            "rdma_puts": self.rdma_puts,
            "am_gets": self.am_gets,
            "am_puts": self.am_puts,
            "rdma_fraction": self.rdma_fraction,
            "barriers": self.barriers,
            "compute_time_us": self.compute_time_us,
            "bulk_messages": self.bulk_messages,
            "bulk_coalesced_segments": self.bulk_coalesced_segments,
            "bulk_bytes_saved": self.bulk_bytes_saved,
            "bulk_mean_depth": self.bulk_depth.mean,
            "max_backlog": self.max_backlog,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "rdma_fallbacks": self.rdma_timeouts,
            "degraded_handles": self.pin_degrades,
            "faults_injected": self.faults_injected,
            "policy_actions": self.policy_actions,
            "kv_failover_ops": self.kv_failover_ops,
            "noisy_links": self.noisy_links(),
        }


@dataclass
class RunResult:
    """What :meth:`repro.runtime.runtime.Runtime.run` returns."""

    elapsed_us: float
    metrics: RuntimeMetrics
    cache_stats: CacheStats
    #: Events the simulator processed (sim-performance visibility).
    sim_events: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RunResult {self.elapsed_us:.1f}us "
                f"remote_ops={self.metrics.remote_ops} "
                f"hit_rate={self.cache_stats.hit_rate:.2f}>")
