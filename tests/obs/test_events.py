"""Tests for the flight-recorder event log itself."""

from repro.obs import (
    EventLog,
    OP_BEGIN,
    OP_END,
    PHASE,
    TraceEvent,
)


def test_disabled_log_records_nothing():
    log = EventLog(enabled=False)
    log.emit(1.0, OP_BEGIN, op=1, name="get")
    assert len(log) == 0
    assert log.dropped_events == 0


def test_emit_and_query():
    log = EventLog()
    a = log.next_op_id()
    b = log.next_op_id()
    assert a != b
    log.emit(1.0, OP_BEGIN, op=a, thread=0, node=0, name="get")
    log.emit(2.0, PHASE, op=a, comp="wire", dur=1.0)
    log.emit(3.0, OP_END, op=a, thread=0, node=0, proto="rdma")
    log.emit(4.0, OP_BEGIN, op=b, thread=1, node=1, name="put")
    assert len(log) == 4
    assert len(log.by_kind(OP_BEGIN)) == 2
    of_a = [e for e in log if e.op == a]
    assert len(of_a) == 3
    assert of_a[1].attrs["comp"] == "wire"


def test_op_spans_pairs_begin_with_end():
    log = EventLog()
    log.emit(1.0, OP_BEGIN, op=1, name="get")
    log.emit(5.0, OP_END, op=1, proto="am")
    log.emit(6.0, OP_BEGIN, op=2, name="get")  # never ends
    spans = log.op_spans()
    assert set(spans) == {1}
    begin, end = spans[1]
    assert begin.t == 1.0 and end.t == 5.0


def test_max_events_drops_newest_and_counts():
    log = EventLog(max_events=2)
    for i in range(5):
        log.emit(float(i), OP_BEGIN, op=i)
    assert len(log) == 2
    assert log.dropped_events == 3
    # The *first* events are the ones kept (drop-newest).
    assert [e.t for e in log] == [0.0, 1.0]


def test_event_equality_is_by_value():
    e1 = TraceEvent(1.0, OP_BEGIN, op=3, attrs={"name": "get"})
    e2 = TraceEvent(1.0, OP_BEGIN, op=3, attrs={"name": "get"})
    e3 = TraceEvent(1.0, OP_BEGIN, op=4, attrs={"name": "get"})
    assert e1 == e2
    assert e1 != e3
