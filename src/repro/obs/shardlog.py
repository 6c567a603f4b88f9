"""Shard-aware tracing: merging per-shard flight logs into one timeline.

Every :class:`~repro.sim.shard.ShardContext` runs its own
:class:`~repro.obs.events.EventLog`; at the end of a sharded run each
shard's events are packed into plain tuples and handed back, one
batch per shard, in :class:`~repro.sim.shard.ShardedRun.shard_events`.
This module turns those batches into **one global timeline**:

* events are merged under the total key ``(time, shard, seq)`` where
  ``seq`` is the event's position in its shard's log — deterministic,
  because each per-shard log is;
* every merged event gains a ``shard`` attr (its track group in the
  Chrome export);
* per-shard causal ``op_id``s are disjoint *within* a shard but collide
  *across* shards — the merge remaps ``op -> op * nshards + shard``,
  which is collision-free and order-preserving per shard;
* :func:`xshard_pairs` joins ``xshard_send``/``xshard_recv`` halves by
  their ``(src, seq)`` message key — the linked spans the exporter
  renders.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.events import (EventLog, TraceEvent, XSHARD_RECV,
                              XSHARD_SEND)


def pack_events(log: EventLog) -> List[tuple]:
    """Flatten a log to plain ``(t, kind, op, thread, node, attrs)``
    tuples, the form :func:`merge_shard_events` and run artifacts
    take."""
    return [(e.t, e.kind, e.op, e.thread, e.node, e.attrs)
            for e in log.events]


def merge_shard_events(shard_events: Sequence[Sequence[tuple]],
                       dropped: int = 0) -> EventLog:
    """Merge per-shard packed event batches into one global log.

    ``shard_events[i]`` is shard *i*'s packed log (see
    :func:`pack_events`).  The result is sorted by ``(t, shard, seq)``
    — a total, transport-independent order — with each event's
    ``attrs`` gaining its ``shard`` and its op id remapped to the
    collision-free global space.
    """
    nshards = max(len(shard_events), 1)
    keyed: List[Tuple[float, int, int, TraceEvent]] = []
    for shard, batch in enumerate(shard_events):
        for seq, (t, kind, op, thread, node, attrs) in enumerate(batch):
            attrs = dict(attrs or {})
            attrs["shard"] = shard
            gop = op * nshards + shard if op >= 0 else -1
            keyed.append((t, shard, seq,
                          TraceEvent(t, kind, gop, thread, node, attrs)))
    keyed.sort(key=lambda item: item[:3])
    log = EventLog(enabled=True)
    log.events = [item[3] for item in keyed]
    log.dropped_events = dropped
    return log


def xshard_pairs(log: EventLog) -> Dict[Tuple[int, int],
                                        Tuple[Optional[TraceEvent],
                                              Optional[TraceEvent]]]:
    """Join cross-shard send/recv halves by their ``(src, seq)`` key.

    Returns ``{(src, seq): (send_event, recv_event)}``; a half may be
    ``None`` when its partner was dropped at the ``max_events`` cap —
    consumers must treat one-sided entries as truncation, not bugs.
    """
    pairs: Dict[Tuple[int, int], List[Optional[TraceEvent]]] = {}
    for e in log:
        if e.kind == XSHARD_SEND:
            key = (e.attrs["src"], e.attrs["seq"])
            pairs.setdefault(key, [None, None])[0] = e
        elif e.kind == XSHARD_RECV:
            key = (e.attrs["src"], e.attrs["seq"])
            pairs.setdefault(key, [None, None])[1] = e
    return {k: (v[0], v[1]) for k, v in pairs.items()}
