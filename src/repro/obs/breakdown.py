"""Latency-breakdown analysis: where did remote op #4217 spend 14 µs?

The paper's tables separate *software overhead* from *wire time* from
*target-handler time*; this module reproduces that decomposition from
flight-recorder events.  Every instrumented protocol path emits
``phase`` events with measured durations for the queue / wire /
handler / piggyback components of the op's critical path; software
overhead is the **residual** ``end_to_end - sum(components)`` —
o_send/o_recv software stacks, cache probes, bounce-buffer copies,
descriptor setup.  Because components are measured wall-virtual-clock
over disjoint regions of a blocking op, the five parts sum to the
end-to-end latency *exactly* (up to float rounding).

Blocking GETs are strictly sequential initiator→target→initiator, so
the decomposition is well defined; relaxed PUTs complete locally while
their target half proceeds in the background, so by default only GETs
are analyzed (pass ``names=('put', ...)`` to override, understanding
that put phases can land after local completion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.obs.events import (
    COMP_HANDLER,
    COMP_PIGGYBACK,
    COMP_QUEUE,
    COMP_SOFTWARE,
    COMP_WIRE,
    COMPONENTS,
    EventLog,
    PHASE,
)
from repro.util.quantiles import quantile

#: Protocols that went over the wire; local/shm ops have no breakdown.
REMOTE_PROTOS = ("rdma", "am")


@dataclass
class OpBreakdown:
    """One remote operation decomposed into latency components."""

    op: int
    name: str
    proto: str
    thread: int
    node: int
    t0: float
    t1: float
    nbytes: int = 0
    queue: float = 0.0
    wire: float = 0.0
    handler: float = 0.0
    piggyback: float = 0.0

    @property
    def end_to_end(self) -> float:
        return self.t1 - self.t0

    @property
    def software(self) -> float:
        """The residual: software overhead on the critical path."""
        return (self.end_to_end
                - (self.queue + self.wire + self.handler + self.piggyback))

    def component(self, comp: str) -> float:
        if comp == COMP_SOFTWARE:
            return self.software
        return getattr(self, comp)


def collect_breakdowns(log: EventLog,
                       names: Sequence[str] = ("get",),
                       protos: Sequence[str] = REMOTE_PROTOS,
                       ) -> List[OpBreakdown]:
    """Reconstruct per-op breakdowns from a flight-recorder log.

    ``names`` filters by operation name (``op_begin.attrs['name']``);
    ``protos`` by the protocol the op resolved to.  Phase events are
    matched to ops by ``op_id`` and restricted to the op's own time
    span, which keeps detached continuations (put tails) out of a
    containing op's budget.
    """
    out: Dict[int, OpBreakdown] = {}
    for op_id, (b, e) in log.op_spans().items():
        if (b.attrs.get("name") in names
                and e.attrs.get("proto") in protos):
            out[op_id] = OpBreakdown(
                op=op_id, name=b.attrs["name"], proto=e.attrs["proto"],
                thread=b.thread, node=b.node, t0=b.t, t1=e.t,
                nbytes=int(e.attrs.get("nbytes", 0)))
    eps = 1e-9
    for ph in log:
        bd = out.get(ph.op) if ph.kind == PHASE else None
        if bd is None or ph.t > bd.t1 + eps:
            continue  # not a kept op, or a detached continuation
        comp = ph.attrs.get("comp")
        dur = float(ph.attrs.get("dur", 0.0))
        if comp == COMP_QUEUE:
            bd.queue += dur
        elif comp == COMP_WIRE:
            bd.wire += dur
        elif comp == COMP_HANDLER:
            bd.handler += dur
        elif comp == COMP_PIGGYBACK:
            bd.piggyback += dur
    return [out[k] for k in sorted(out)]


@dataclass
class ComponentStats:
    """Aggregate view of one latency component across ops."""

    mean: float = 0.0
    total: float = 0.0
    share: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0


@dataclass
class BreakdownSummary:
    """Per-component aggregates over a set of op breakdowns."""

    n_ops: int = 0
    e2e_mean: float = 0.0
    by_component: Dict[str, ComponentStats] = field(default_factory=dict)

    @property
    def component_mean_sum(self) -> float:
        return sum(s.mean for s in self.by_component.values())


def summarize(breakdowns: Iterable[OpBreakdown]) -> BreakdownSummary:
    """Fold op breakdowns into per-component means/shares/percentiles."""
    bds = list(breakdowns)
    summary = BreakdownSummary(n_ops=len(bds))
    if not bds:
        return summary
    e2e_total = sum(b.end_to_end for b in bds)
    summary.e2e_mean = e2e_total / len(bds)
    for comp in COMPONENTS:
        vals = [b.component(comp) for b in bds]
        total = sum(vals)
        summary.by_component[comp] = ComponentStats(
            mean=total / len(vals),
            total=total,
            share=(total / e2e_total) if e2e_total else 0.0,
            p50=quantile(vals, 0.50),
            p95=quantile(vals, 0.95),
            p99=quantile(vals, 0.99),
        )
    return summary


def render_breakdown(breakdowns: Iterable[OpBreakdown],
                     title: str = "remote GET latency breakdown") -> str:
    """The paper-style component table, plus a sum self-check.

    The final line reports how far the component means are from the
    measured end-to-end mean — by construction this is float noise;
    the acceptance bar is 1%.
    """
    s = summarize(breakdowns)
    if not s.n_ops:
        return f"{title}: no remote operations recorded"
    lines = [
        f"{title} ({s.n_ops} ops, end-to-end mean "
        f"{s.e2e_mean:.2f}us)",
        f"{'component':>12} {'mean_us':>9} {'share':>7} "
        f"{'p50_us':>9} {'p95_us':>9} {'p99_us':>9}",
    ]
    for comp in COMPONENTS:
        cs = s.by_component[comp]
        lines.append(
            f"{comp:>12} {cs.mean:>9.3f} {cs.share:>7.1%} "
            f"{cs.p50:>9.3f} {cs.p95:>9.3f} {cs.p99:>9.3f}")
    total_mean = s.component_mean_sum
    err = (abs(total_mean - s.e2e_mean) / s.e2e_mean
           if s.e2e_mean else 0.0)
    lines.append(
        f"{'sum':>12} {total_mean:>9.3f} "
        f"(vs end-to-end {s.e2e_mean:.3f}us, error {err:.4%})")
    return "\n".join(lines)
