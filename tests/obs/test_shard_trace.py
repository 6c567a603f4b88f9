"""Shard-aware tracing: merge ordering, cross-shard span joins,
Chrome export, and the zero-cost-when-off contract on the sharded
core (recording on must leave every layout bit-identical)."""

import pytest

from repro.obs.events import (
    BARRIER_ARRIVE,
    BARRIER_RELEASE,
    EventLog,
    OP_BEGIN,
    OP_END,
    SYNC_ROUND,
    XSHARD_RECV,
    XSHARD_SEND,
)
from repro.obs.export import (
    SYNC_TID,
    XSHARD_TID,
    export_chrome_sharded,
    validate_chrome,
)
from repro.obs.shardlog import (
    merge_shard_events,
    pack_events,
    xshard_pairs,
)
from repro.testing.generator import generate_program
from repro.workloads.kv_traffic import TrafficParams, run_kv_traffic
from repro.workloads.sharded import run_field_sharded

from tests.sim.shard_referees import run_corpus_sharded

FIELD_NT = 32  # 8 nodes -> shard counts 1/2/4 all divide evenly


def _field(nshards, trace, **kw):
    return run_field_sharded(FIELD_NT, nshards, ntokens=3, probes=2,
                             trace=trace, **kw)


# ---------------------------------------------------------------------------
# merge_shard_events unit behaviour
# ---------------------------------------------------------------------------

def _packed(events):
    """[(t, kind, op, thread, node, attrs), ...] helper."""
    return [(t, k, op, th, nd, at) for t, k, op, th, nd, at in events]


def test_merge_orders_by_time_shard_seq():
    s0 = _packed([(5.0, "a", -1, 0, 0, {}), (5.0, "b", -1, 0, 0, {})])
    s1 = _packed([(1.0, "c", -1, 0, 1, {}), (5.0, "d", -1, 0, 1, {})])
    log = merge_shard_events([s0, s1])
    assert [e.kind for e in log] == ["c", "a", "b", "d"]
    # total order: (t, shard, seq); shard 0 wins ties, and within a
    # shard the log order (seq) is preserved.
    assert [e.attrs["shard"] for e in log] == [1, 0, 0, 1]


def test_merge_remaps_op_ids_collision_free():
    s0 = _packed([(1.0, OP_BEGIN, 3, 0, 0, {}),
                  (2.0, OP_END, 3, 0, 0, {})])
    s1 = _packed([(1.5, OP_BEGIN, 3, 0, 1, {}),
                  (2.5, OP_END, 3, 0, 1, {})])
    log = merge_shard_events([s0, s1])
    ops = {e.op for e in log}
    assert ops == {3 * 2 + 0, 3 * 2 + 1}   # op * nshards + shard
    # negative (unset) op ids stay -1
    log2 = merge_shard_events([_packed([(0.0, "x", -1, 0, 0, {})])])
    assert log2.events[0].op == -1


def test_merge_carries_dropped_count():
    log = merge_shard_events([[], []], dropped=7)
    assert log.dropped_events == 7
    assert len(log) == 0


def test_pack_events_round_trips():
    src = EventLog(enabled=True)
    src.emit(1.0, OP_BEGIN, op=1, thread=2, node=3, name="x")
    src.emit(2.0, OP_END, op=1, thread=2, node=3)
    merged = merge_shard_events([pack_events(src)])
    assert len(merged) == 2
    assert merged.events[0].attrs["name"] == "x"
    assert merged.events[0].attrs["shard"] == 0


def test_xshard_pairs_joins_and_tolerates_missing_halves():
    s0 = _packed([(1.0, XSHARD_SEND, -1, -1, 0,
                   {"src": 0, "seq": 1, "dst": 1}),
                  (1.2, XSHARD_SEND, -1, -1, 0,
                   {"src": 0, "seq": 2, "dst": 1})])
    s1 = _packed([(3.0, XSHARD_RECV, -1, -1, 1,
                   {"src": 0, "seq": 1}),
                  (3.5, XSHARD_RECV, -1, -1, 1,
                   {"src": 0, "seq": 9})])   # orphan recv
    pairs = xshard_pairs(merge_shard_events([s0, s1]))
    assert set(pairs) == {(0, 1), (0, 2), (0, 9)}
    send, recv = pairs[(0, 1)]
    assert send is not None and recv is not None
    assert recv.t - send.t == pytest.approx(2.0)
    assert pairs[(0, 2)][1] is None    # dropped recv half
    assert pairs[(0, 9)][0] is None    # dropped send half


# ---------------------------------------------------------------------------
# Field mix: real merged timelines
# ---------------------------------------------------------------------------

def test_field_sharded_trace_merges_and_joins():
    res = _field(2, trace=True)
    run = res["run"]
    assert len(run.shard_events) == 2
    assert all(batch for batch in run.shard_events)
    log = merge_shard_events(run.shard_events, run.trace_dropped)
    keys = [(e.t, e.attrs["shard"]) for e in log]
    assert keys == sorted(keys)
    kinds = {e.kind for e in log}
    assert {XSHARD_SEND, XSHARD_RECV, SYNC_ROUND, BARRIER_ARRIVE,
            BARRIER_RELEASE, OP_BEGIN, OP_END} <= kinds
    pairs = xshard_pairs(log)
    assert pairs, "field mix must cross shards"
    assert all(s is not None and r is not None
               for s, r in pairs.values()), "unpaired xshard halves"
    for send, recv in pairs.values():
        assert recv.t == pytest.approx(send.attrs["arrival"])
        assert recv.t >= send.t

    # every shard contributed sync-round annotations
    rounds = [e for e in log if e.kind == SYNC_ROUND]
    assert {e.attrs["shard"] for e in rounds} == {0, 1}
    assert any(e.attrs.get("stall") for e in rounds) or rounds


def test_field_trace_max_events_drops_newest():
    res = _field(2, trace=True, trace_max_events=10)
    run = res["run"]
    assert all(len(batch) == 10 for batch in run.shard_events)
    assert run.trace_dropped > 0


def test_export_chrome_sharded_tracks_and_links():
    res = _field(2, trace=True)
    run = res["run"]
    log = merge_shard_events(run.shard_events, run.trace_dropped)
    doc = export_chrome_sharded(log)
    assert validate_chrome(doc) == []
    ev = doc["traceEvents"]
    pids = {e["pid"] for e in ev if e["ph"] != "M"}
    assert pids == {0, 1}, "one Chrome process (track group) per shard"
    names = {e["args"]["name"] for e in ev
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"shard 0", "shard 1"}
    sync = [e for e in ev if e.get("tid") == SYNC_TID
            and e["ph"] == "X"]
    assert any(e["name"] == "sync_round" for e in sync)
    assert any(e["name"] in ("barrier_arrive", "barrier_release")
               for e in sync)
    links = [e for e in ev if e.get("tid") == XSHARD_TID
             and "link" in e.get("args", {})]
    sends = [e for e in links if e["name"].startswith("xshard:")
             and not e["name"].endswith(":recv")]
    recvs = [e for e in links if e["name"].endswith(":recv")]
    assert sends and recvs
    # linked spans: every send's link key has a recv with the same key
    assert ({e["args"]["link"] for e in sends}
            == {e["args"]["link"] for e in recvs})
    # send spans stretch to the arrival instant
    assert all(e["dur"] > 0 for e in sends)


def test_export_chrome_sharded_writes_file(tmp_path):
    res = _field(2, trace=True)
    run = res["run"]
    log = merge_shard_events(run.shard_events, run.trace_dropped)
    dest = tmp_path / "field.trace.json"
    export_chrome_sharded(log, str(dest))
    assert dest.exists() and dest.stat().st_size > 0


# ---------------------------------------------------------------------------
# zero-cost-when-off: recording must not change any layout's results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_field_bit_identical_with_trace_on(nshards):
    off = _field(nshards, trace=False)
    on = _field(nshards, trace=True)
    assert on["trace"] == off["trace"]
    assert on["field"] == off["field"]
    assert on["digest"] == off["digest"]
    assert on["now"] == off["now"]
    assert on["events"] == off["events"]
    assert not any(off["run"].shard_events), "untraced run shipped events"
    assert any(on["run"].shard_events), "traced run recorded nothing"


@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_corpus_bit_identical_with_trace_on(nshards):
    program = generate_program(seed=11, n_ops=120, nthreads=4)
    off = run_corpus_sharded(program, nshards)
    on = run_corpus_sharded(program, nshards, trace=True)
    assert on["mem"] == off["mem"]
    assert on["digests"] == off["digests"]
    assert on["finish"] == off["finish"]
    assert on["now"] == off["now"]
    assert on["events"] == off["events"]


@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_kv_traffic_bit_identical_with_trace_on(nshards):
    p = TrafficParams(requests=2000, slo_target_us=30.0,
                      slo_window_us=500.0)
    off = run_kv_traffic(p, nshards)
    on = run_kv_traffic(p, nshards, trace=True)
    assert on.digests == off.digests
    assert on.now == off.now
    assert on.events == off.events
    assert (on.hist == off.hist).all()
    assert on.extra["slo"]["windows"] == off.extra["slo"]["windows"] != []
    # ...and against neither: the SLO monitor is an observer too.
    bare = run_kv_traffic(TrafficParams(requests=2000), nshards)
    assert "slo" not in bare.extra
    assert (bare.digests, bare.now, bare.events) == (
        on.digests, on.now, on.events)
    assert (bare.hist == on.hist).all()
    log = merge_shard_events(on.extra["run"].shard_events)
    spans = [e for e in log if e.kind == OP_END]
    assert len(spans) == on.requests
    assert all(e.attrs["fct_us"] > 0 for e in spans)
