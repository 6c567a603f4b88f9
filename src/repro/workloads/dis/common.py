"""Shared scaffolding for the DIS stressmarks."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict

from repro.runtime.metrics import RunResult
from repro.runtime.runtime import Runtime, RuntimeConfig


@dataclass(frozen=True)
class DISBase(RuntimeConfig):
    """Configuration fields every stressmark shares: the
    :class:`RuntimeConfig` fields, to which each stressmark adds its
    problem size."""

    def runtime(self) -> Runtime:
        """A runtime configured by the inherited fields."""
        return Runtime(RuntimeConfig(**{
            f.name: getattr(self, f.name) for f in fields(RuntimeConfig)}))


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
