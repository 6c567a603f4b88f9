"""Time-evolving link degradation: scenario shapes and fate hashing.

A :class:`~repro.faults.plan.FaultPlan` link rule carries piecewise
segments (:class:`~repro.faults.plan.TraceSegment`), so a link's
health can *evolve*: loss, corruption and latency inflation per time
slice, optionally linearly interpolated inside a segment.  The seeded
generators here build the linkguardian-style scenario shapes as plans:
``flap`` (a link oscillating up/down), ``burst`` (short high-loss
storms), ``degrade`` (slow linear rot of loss + latency), and ``gray``
(low-grade silent corruption that never trips a hard failure).

One draw discipline consumes a plan's link rules: every fate is
:func:`fate_u01` — a pure integer hash of the message's identity
(``(seed, src, seq, attempt, slot)`` in the runtime's
:class:`~repro.faults.injector.FaultInjector`, ``(seed, client, seq,
attempt, leg)`` in the sharded traffic harness) — so the fate of every
attempt is a function of *identity*, not of event interleaving.  That
is what makes "same plan + seed ⇒ bit-identical fate sequence across
shards {1,2,4}" hold by construction, and what keeps one node's fates
from moving when another node's traffic changes.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.faults.plan import FaultPlan, LinkRule, TraceSegment
from repro.util.rng import seeded_rng

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer — a high-quality 64-bit avalanche."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


def fate_hash(*keys: int) -> int:
    """Pure 64-bit hash of an integer key tuple (order-sensitive)."""
    h = _GOLDEN
    for k in keys:
        h = _mix64(h ^ (int(k) & _MASK64))
    return h


def fate_u01(*keys: int) -> float:
    """Deterministic uniform draw in [0, 1) from an integer key tuple.

    A pure function of identity — no RNG state, no draw ordering — so
    per-message fate decisions keyed by ``(seed, client, seq, attempt,
    leg)`` are identical whatever shard layout processes them.
    """
    return fate_hash(*keys) / 2.0 ** 64


# ---------------------------------------------------------------------------
# Seeded scenario generators (linkguardian-style shapes)
# ---------------------------------------------------------------------------

def _pick_link(rng, nnodes: int) -> Tuple[int, int]:
    src = int(rng.integers(nnodes))
    dst = int(rng.integers(nnodes - 1))
    if dst >= src:
        dst += 1
    return src, dst


def flap_trace(nnodes: int, seed: int = 0, *, horizon_us: float = 20000.0,
               period_us: float = 2000.0, down_us: float = 800.0,
               down_loss: float = 0.9) -> FaultPlan:
    """A flapping link: up, then heavy loss for ``down_us`` of every
    ``period_us``, repeating until ``horizon_us``.  The shape repair
    policies are judged against — ``disable_and_repair`` should route
    around every down phase it has seen once."""
    rng = seeded_rng(seed, 0x71A9)
    src, dst = _pick_link(rng, nnodes)
    phase = float(rng.uniform(0.2, 0.8)) * period_us
    segs = []
    t = phase
    while t < horizon_us:
        segs.append(TraceSegment(t_start=t,
                                 t_end=min(t + down_us, horizon_us),
                                 loss=down_loss))
        t += period_us
    return FaultPlan(seed=seed, name="flap",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=tuple(segs)),))


def burst_trace(nnodes: int, seed: int = 0, *,
                horizon_us: float = 20000.0, bursts: int = 4,
                burst_us: float = 600.0,
                burst_loss: float = 0.6) -> FaultPlan:
    """Short loss storms at random instants on one link (congestion
    collapse / transient optics trouble)."""
    rng = seeded_rng(seed, 0xB0B5)
    src, dst = _pick_link(rng, nnodes)
    starts = sorted(float(rng.uniform(0.05, 0.9)) * horizon_us
                    for _ in range(bursts))
    segs = []
    last_end = 0.0
    for s in starts:
        s = max(s, last_end + 1.0)
        if s >= horizon_us:
            break
        end = min(s + burst_us, horizon_us)
        segs.append(TraceSegment(t_start=s, t_end=end, loss=burst_loss))
        last_end = end
    return FaultPlan(seed=seed, name="burst",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=tuple(segs)),))


def degrade_trace(nnodes: int, seed: int = 0, *,
                  horizon_us: float = 20000.0, final_loss: float = 0.45,
                  final_delay_us: float = 30.0) -> FaultPlan:
    """Slow rot: loss and latency inflation ramp linearly from healthy
    to ``final_*`` across the horizon (aging optics, creeping FEC
    retries) — the shape that exercises segment interpolation."""
    rng = seeded_rng(seed, 0xDE64)
    src, dst = _pick_link(rng, nnodes)
    onset = float(rng.uniform(0.1, 0.3)) * horizon_us
    seg = TraceSegment(t_start=onset, t_end=horizon_us,
                       loss=0.0, loss_end=final_loss,
                       delay_us=0.0, delay_end_us=final_delay_us)
    return FaultPlan(seed=seed, name="degrade",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=(seg,)),))


def gray_trace(nnodes: int, seed: int = 0, *,
               horizon_us: float = 20000.0, corrupt: float = 0.12,
               delay_us: float = 6.0) -> FaultPlan:
    """Gray failure: a link that silently corrupts a steady small
    fraction of frames (receiver CRC drops them) with mild latency
    inflation — never bad enough to look hard-down, always bad enough
    to hurt the tail."""
    rng = seeded_rng(seed, 0x64A1)
    src, dst = _pick_link(rng, nnodes)
    onset = float(rng.uniform(0.05, 0.2)) * horizon_us
    seg = TraceSegment(t_start=onset, t_end=horizon_us,
                       corrupt=corrupt, delay_us=delay_us)
    return FaultPlan(seed=seed, name="gray",
                     links=(LinkRule(src=src, dst=dst,
                                     segments=(seg,)),))


#: Registry of scenario-shape builders: name -> f(nnodes, seed, **kw).
TRACE_SHAPES: Dict[str, Callable[..., FaultPlan]] = {
    "flap": flap_trace,
    "burst": burst_trace,
    "degrade": degrade_trace,
    "gray": gray_trace,
}


#: Generator overrides compressing each shape into a ~6 ms horizon so
#: short (smoke/CI) traffic windows still see several episodes.
#: Shared by the lossy-fabric bench and campaign lossy cells.
COMPRESSED_TRACE_KW: Dict[str, Dict[str, float]] = {
    "flap": dict(horizon_us=6000.0, period_us=2000.0, down_us=800.0),
    "burst": dict(horizon_us=6000.0, bursts=3),
    "degrade": dict(horizon_us=6000.0),
    "gray": dict(horizon_us=6000.0),
}


def make_trace(shape: str, nnodes: int, seed: int = 0,
               **kwargs) -> FaultPlan:
    """Build a named scenario shape for an ``nnodes``-node cluster."""
    try:
        builder = TRACE_SHAPES[shape]
    except KeyError:
        names = ", ".join(sorted(TRACE_SHAPES))
        raise ValueError(f"unknown trace shape {shape!r} "
                         f"(expected one of: {names})") from None
    if nnodes < 2:
        raise ValueError(f"trace shape {shape!r} degrades one link of "
                         f"the cluster: it needs at least 2 nodes, "
                         f"got {nnodes}")
    return builder(nnodes, seed, **kwargs)
