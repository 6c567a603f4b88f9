"""Per-run metrics collected by the runtime.

The experiment harness consumes these to produce the paper's numbers:
execution-time improvements (Figures 6, 9), cache hit rates
(Figure 8), and the miss-overhead claim of section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.stats import CacheStats
from repro.faults.health import HealthTracker, noisy_links
from repro.util.quantiles import LatencyDigest


@dataclass
class RuntimeMetrics:
    """Operation-level accounting for one runtime instance."""

    #: Latency (µs) of blocking GETs, by resolution class.  Each keeps
    #: its samples, so the remote-GET tail that exposed Field's
    #: overhang waits (§4.6) reads as exact order statistics.
    get_local: LatencyDigest = field(default_factory=LatencyDigest)
    get_shm: LatencyDigest = field(default_factory=LatencyDigest)
    get_remote: LatencyDigest = field(default_factory=LatencyDigest)
    #: Initiator-visible latency of PUTs.
    put_local: LatencyDigest = field(default_factory=LatencyDigest)
    put_shm: LatencyDigest = field(default_factory=LatencyDigest)
    put_remote: LatencyDigest = field(default_factory=LatencyDigest)

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
    bulk_depth: LatencyDigest = field(default_factory=LatencyDigest)

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

    #: The run's per-link ledger (attempts, timeouts, retries,
    #: deliveries per (src, dst)), the runtime's ``HealthTracker``;
    #: None without a fault plan.  Feeds the noisy-links rollup.
    health: Optional[HealthTracker] = None

    #: Peak AM-handler backlog observed by any polling progress engine
    #: (handlers queued while no thread was polling, §4.6) — updated on
    #: every enqueue transition, not just at sampler ticks.
    max_backlog: int = 0

    @property
    def remote_ops(self) -> int:
        return self.rdma_gets + self.rdma_puts + self.am_gets + self.am_puts

    @property
    def rdma_fraction(self) -> float:
        """Share of remote operations that went over RDMA — a direct
        view of how effective the address cache was."""
        n = self.remote_ops
        return (self.rdma_gets + self.rdma_puts) / n if n else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "remote_gets": self.get_remote.count,
            "remote_get_mean_us": self.get_remote.mean,
            "remote_get_p50_us": self.get_remote.p50,
            "remote_get_p99_us": self.get_remote.p99,
            "remote_puts": self.put_remote.count,
            "remote_put_mean_us": self.put_remote.mean,
            "shm_accesses": self.get_shm.count + self.put_shm.count,
            "local_accesses": self.get_local.count + self.put_local.count,
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
            "noisy_links": [] if self.health is None else [
                {"src": src, "dst": dst, "timeouts": t["timeouts"],
                 "retries": t["retries"]}
                for (src, dst), t in noisy_links(
                    self.health.link_totals(), 5)],
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
