"""Flight-recorder exporters: Chrome trace-event JSON and JSONL.

* :func:`export_chrome` renders the log in the Chrome trace-event
  format (the JSON array flavour) — open ``chrome://tracing`` or
  https://ui.perfetto.dev and drop the file in.  One track per UPC
  thread, plus a per-node handler/NIC track; every remote operation
  becomes a span on the initiating thread's track and its target
  handler a span on the target node's track, both carrying the causal
  ``op_id`` in ``args`` (the initiator→target link).
* :func:`dump_jsonl` / :func:`load_jsonl` move the raw event stream in
  and out of newline-delimited JSON for ad-hoc pandas work; the round
  trip reproduces an equivalent :class:`~repro.obs.events.EventLog`.
* :func:`validate_chrome` is the schema check the CI smoke job (and
  the exporter itself) runs: phase letters, timestamp monotonicity,
  begin/end balance.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.obs.events import (
    AM_REPLY_SEND,
    BARRIER_ARRIVE,
    BARRIER_RELEASE,
    EventLog,
    HANDLER_BEGIN,
    HANDLER_END,
    OP_END,
    SYNC_ROUND,
    TraceEvent,
    XSHARD_RECV,
    XSHARD_SEND,
)

#: Trace-event phases the exporter emits / the validator accepts.
CHROME_PHASES = ("B", "E", "X", "C", "M")

#: Op names rendered as B/E pairs (strictly sequential per thread —
#: safe to nest); everything else is a complete "X" span, which stays
#: valid even when split-phase/bulk sub-ops overlap on one thread.
_NESTED_NAMES = ("barrier", "lock", "compute")

#: Synthetic tid for the per-node handler/NIC track.
HANDLER_TID = 1_000_000

#: Synthetic tids inside a shard's track group (sharded exports): the
#: conservative-sync round/barrier-window track and the cross-shard
#: message track.
SYNC_TID = 1_000_001
XSHARD_TID = 1_000_002


def span_name(begin: TraceEvent, end: TraceEvent) -> str:
    """``name:proto`` for spans that resolved a protocol, else ``name``
    (also the ``state`` of :mod:`repro.obs.states`)."""
    name = str(begin.attrs.get("name", "op"))
    proto = end.attrs.get("proto")
    return f"{name}:{proto}" if proto else name


def _finish(meta: List[dict], events: List[dict],
            dest: Union[str, TextIO, None]) -> dict:
    """Order, validate and (optionally) write a trace-event document."""
    events.sort(key=lambda d: d["ts"])
    doc = {"traceEvents": meta + events, "displayTimeUnit": "ms"}
    problems = validate_chrome(doc)
    if problems:
        raise ValueError("invalid chrome trace: " + "; ".join(problems))
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    elif dest is not None:
        json.dump(doc, dest)
    return doc


def export_chrome(log: EventLog, dest: Union[str, TextIO, None] = None,
                  counters: Optional[list] = None) -> dict:
    """Build (and optionally write) the Chrome trace-event document.

    ``counters`` is an optional list of ``(t, node, name, value)``
    samples (see :class:`~repro.obs.sampler.CounterSampler`) rendered
    as "C" counter events.  The document is validated before being
    returned/written; an invalid document raises ``ValueError`` —
    exports are never silently malformed.
    """
    events: List[dict] = []
    meta: List[dict] = []
    seen_tracks: set = set()
    spans = log.op_spans()
    handler_open: Dict[Tuple[int, int], List[TraceEvent]] = {}
    piggy_ops: set = set()

    def track(pid: int, tid: int, name: str) -> None:
        if (pid, tid) in seen_tracks:
            return
        seen_tracks.add((pid, tid))
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "tid": 0, "ts": 0,
                     "args": {"name": f"node {pid}"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "ts": 0, "args": {"name": name}})

    for e in log:
        if e.kind == OP_END:
            b, end = spans.get(e.op, (None, None))
            if end is not e:
                continue
            pid, tid = max(b.node, 0), max(b.thread, 0)
            track(pid, tid, f"upc thread {tid}")
            name = span_name(b, e)
            args = {"op_id": e.op}
            for k in ("nbytes", "proto", "index", "segments", "parent"):
                v = e.attrs.get(k, b.attrs.get(k))
                if v is not None:
                    args[k] = v
            if e.op in piggy_ops:
                args["piggyback"] = True
            if b.attrs.get("name") in _NESTED_NAMES:
                events.append({"ph": "B", "name": name, "pid": pid,
                               "tid": tid, "ts": b.t, "args": args})
                events.append({"ph": "E", "name": name, "pid": pid,
                               "tid": tid, "ts": e.t, "args": {}})
            else:
                events.append({"ph": "X", "name": name, "pid": pid,
                               "tid": tid, "ts": b.t,
                               "dur": max(e.t - b.t, 0.0), "args": args})
        elif e.kind == HANDLER_BEGIN:
            handler_open.setdefault((e.op, e.node), []).append(e)
        elif e.kind == HANDLER_END:
            stack = handler_open.get((e.op, e.node))
            if not stack:
                continue
            b = stack.pop()
            pid = max(e.node, 0)
            track(pid, HANDLER_TID, "am handler / nic")
            events.append({
                "ph": "X", "name": "am_handler", "pid": pid,
                "tid": HANDLER_TID, "ts": b.t,
                "dur": max(e.t - b.t, 0.0),
                "args": {"op_id": e.op},
            })
        elif e.kind == AM_REPLY_SEND and e.attrs.get("piggyback"):
            piggy_ops.add(e.op)

    if counters:
        for t, node, name, value in counters:
            pid = max(int(node), 0)
            events.append({"ph": "C", "name": str(name), "pid": pid,
                           "tid": 0, "ts": float(t),
                           "args": {"value": float(value)}})

    return _finish(meta, events, dest)


def export_chrome_sharded(log: EventLog,
                          dest: Union[str, TextIO, None] = None) -> dict:
    """Chrome trace-event document for a **merged shard timeline**
    (see :mod:`repro.obs.shardlog`).

    Track groups are *shards*, not nodes: ``pid = shard``, with each
    shard's UPC-thread/workload-op tracks plus two synthetic tracks —

    * ``sync rounds`` (:data:`SYNC_TID`): one span per conservative
      grain (``sync_round``), named ``sync_stall`` when the grain
      processed zero events (the barrier-window stalls §conservative
      sync makes unavoidable), plus barrier arrive/release markers;
    * ``cross-shard msgs`` (:data:`XSHARD_TID`): the send half spans
      the wire time and the receive half marks the arrival — both
      carry ``args.link = "src:seq"``, the key that joins the two
      halves of one message across shard track groups.

    The document is validated before being returned/written.
    """
    events: List[dict] = []
    meta: List[dict] = []
    seen_tracks: set = set()
    spans = log.op_spans()

    def track(pid: int, tid: int, name: str) -> None:
        if (pid, tid) in seen_tracks:
            return
        seen_tracks.add((pid, tid))
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "tid": 0, "ts": 0,
                     "args": {"name": f"shard {pid}"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "ts": 0, "args": {"name": name}})

    for e in log:
        pid = int(e.attrs.get("shard", 0))
        if e.kind == OP_END:
            b, end = spans.get(e.op, (None, None))
            if end is not e:
                continue
            bpid = int(b.attrs.get("shard", pid))
            tid = max(b.thread, 0)
            track(bpid, tid, f"upc thread {tid}")
            args = {"op_id": e.op}
            for k in ("node", "proto", "nbytes"):
                v = e.attrs.get(k, b.attrs.get(k))
                if v is not None:
                    args[k] = v
            if b.node >= 0:
                args["node"] = b.node
            events.append({"ph": "X", "name": span_name(b, e),
                           "pid": bpid, "tid": tid, "ts": b.t,
                           "dur": max(e.t - b.t, 0.0), "args": args})
        elif e.kind == SYNC_ROUND:
            track(pid, SYNC_TID, "sync rounds")
            stall = bool(e.attrs.get("stall"))
            args = {"round": e.attrs.get("round", 0),
                    "events": e.attrs.get("events", 0),
                    "delivered": e.attrs.get("delivered", 0)}
            if "horizon" in e.attrs:
                args["horizon"] = e.attrs["horizon"]
            events.append({"ph": "X",
                           "name": "sync_stall" if stall else "sync_round",
                           "pid": pid, "tid": SYNC_TID, "ts": e.t,
                           "dur": max(float(e.attrs.get("dur", 0.0)), 0.0),
                           "args": args})
        elif e.kind in (BARRIER_ARRIVE, BARRIER_RELEASE):
            track(pid, SYNC_TID, "sync rounds")
            events.append({"ph": "X", "name": e.kind, "pid": pid,
                           "tid": SYNC_TID, "ts": e.t, "dur": 0.0,
                           "args": {"name": str(e.attrs.get("name", ""))}})
        elif e.kind == XSHARD_SEND:
            track(pid, XSHARD_TID, "cross-shard msgs")
            link = f"{e.attrs['src']}:{e.attrs['seq']}"
            events.append({
                "ph": "X", "name": f"xshard:{e.attrs.get('msg', '?')}",
                "pid": pid, "tid": XSHARD_TID, "ts": e.t,
                "dur": max(float(e.attrs.get("arrival", e.t)) - e.t, 0.0),
                "args": {"link": link, "dst": e.attrs.get("dst"),
                         "nbytes": e.attrs.get("nbytes", 0)}})
        elif e.kind == XSHARD_RECV:
            track(pid, XSHARD_TID, "cross-shard msgs")
            link = f"{e.attrs['src']}:{e.attrs['seq']}"
            events.append({
                "ph": "X",
                "name": f"xshard:{e.attrs.get('msg', '?')}:recv",
                "pid": pid, "tid": XSHARD_TID, "ts": e.t, "dur": 0.0,
                "args": {"link": link, "src": e.attrs.get("src"),
                         "nbytes": e.attrs.get("nbytes", 0)}})

    return _finish(meta, events, dest)


def validate_chrome(doc: object) -> List[str]:
    """Schema check for a trace-event document; returns problems
    (empty list == valid).

    Checks: top-level shape, phase letters limited to B/E/X/C/M,
    numeric non-decreasing ``ts`` (metadata aside), non-negative "X"
    durations, and B/E balance per (pid, tid) track.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not a dict with a traceEvents list"]
    evs = doc["traceEvents"]
    if not isinstance(evs, list):
        return ["traceEvents is not a list"]
    last_ts = None
    stacks: Dict[Tuple, List[str]] = {}
    for i, e in enumerate(evs):
        if not isinstance(e, dict):
            problems.append(f"event #{i} is not an object")
            continue
        ph = e.get("ph")
        if ph not in CHROME_PHASES:
            problems.append(f"event #{i} has phase {ph!r} "
                            f"(allowed: {'/'.join(CHROME_PHASES)})")
            continue
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event #{i} has non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event #{i} ts {ts} < previous {last_ts} "
                "(not monotone)")
        last_ts = ts
        if ph == "X" and e.get("dur", 0) < 0:
            problems.append(f"event #{i} has negative dur")
        if not isinstance(e.get("name"), str):
            problems.append(f"event #{i} has no string name")
        key = (e.get("pid"), e.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(e.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(
                    f"event #{i}: E without matching B on track {key}")
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(
                f"track {key}: {len(stack)} unclosed B event(s)")
    return problems


# -- JSONL -------------------------------------------------------------

def _jsonable(value):
    """Coerce numpy scalars and other int/float-likes for json."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def dump_jsonl(log: EventLog, dest: Union[str, TextIO]) -> int:
    """One event per line; returns the number of lines written."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            return dump_jsonl(log, fh)
    n = 0
    for e in log:
        record = {"t": e.t, "kind": e.kind, "op": e.op,
                  "thread": e.thread, "node": e.node,
                  "attrs": {k: _jsonable(v) for k, v in e.attrs.items()}}
        dest.write(json.dumps(record) + "\n")
        n += 1
    if log.dropped_events:
        dest.write(json.dumps({"kind": "meta",
                               "dropped_events": log.dropped_events})
                   + "\n")
        n += 1
    return n


def load_jsonl(src: Union[str, TextIO]) -> EventLog:
    """Inverse of :func:`dump_jsonl`: an equivalent EventLog."""
    if isinstance(src, str):
        with open(src, encoding="utf-8") as fh:
            return load_jsonl(fh)
    log = EventLog()
    for line in src:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("kind") == "meta":
            log.dropped_events = int(rec.get("dropped_events", 0))
            continue
        log.append(TraceEvent(
            t=float(rec["t"]), kind=rec["kind"], op=int(rec["op"]),
            thread=int(rec["thread"]), node=int(rec["node"]),
            attrs=rec.get("attrs") or {}))
    return log
