"""Shared scaffolding for the DIS stressmarks."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.core.address_cache import DEFAULT_CAPACITY, EvictionPolicy
from repro.core.piggyback import PiggybackConfig
from repro.core.policy import DEFAULT_CHUNK_BYTES, PinningPolicy
from repro.network.params import MachineParams
from repro.runtime.metrics import RunResult
from repro.runtime.runtime import Runtime, RuntimeConfig


@dataclass(frozen=True)
class DISBase:
    """Configuration fields every stressmark shares."""

    machine: MachineParams
    nthreads: int
    threads_per_node: Optional[int] = None
    cache_enabled: bool = True
    cache_capacity: int = DEFAULT_CAPACITY
    cache_policy: EvictionPolicy = EvictionPolicy.LRU
    pinning_policy: PinningPolicy = PinningPolicy.PIN_EVERYTHING
    pin_chunk_bytes: int = DEFAULT_CHUNK_BYTES
    piggyback: PiggybackConfig = field(default_factory=PiggybackConfig)
    use_rdma_put: Optional[bool] = None
    #: Bulk-transfer engine knobs (pipelined memget/memput; see
    #: :mod:`repro.runtime.bulk`).
    bulk_enabled: bool = True
    bulk_max_inflight: int = 8
    bulk_max_coalesce_bytes: int = 64 * 1024
    seed: int = 0
    #: Optional flight recorder (an :class:`repro.obs.EventLog`).
    events: Optional[Any] = None
    #: Optional deterministic fault plan / reliability knobs (see
    #: :mod:`repro.faults` and docs/FAULTS.md), and the repair policy
    #: watching the plan's links (a :data:`repro.faults.POLICIES` name).
    fault_plan: Optional[Any] = None
    reliability: Optional[Any] = None
    repair_policy: Optional[str] = None

    def runtime(self) -> Runtime:
        """A runtime configured by the fields above: each one is the
        :class:`RuntimeConfig` field of the same name."""
        return Runtime(RuntimeConfig(**{
            f.name: getattr(self, f.name) for f in fields(DISBase)}))


@dataclass
class DISResult:
    """Outcome of one stressmark run."""

    run: RunResult
    #: Functional output (identical across cache configurations —
    #: the validity check every test relies on).
    check: Any
    #: Per-node cache hit rates (Figure 8 reports "a random thread";
    #: we expose them all and the figure code picks node 0).
    node_hit_rates: Dict[int, float] = field(default_factory=dict)

    @property
    def elapsed_us(self) -> float:
        return self.run.elapsed_us

    @property
    def hit_rate(self) -> float:
        return self.run.cache_stats.hit_rate


def collect_result(rt: Runtime, run: RunResult, check: Any) -> DISResult:
    rates = {
        node.id: rt.addr_cache(node.id).stats.hit_rate
        for node in rt.cluster.nodes
    }
    return DISResult(run=run, check=check, node_hit_rates=rates)
