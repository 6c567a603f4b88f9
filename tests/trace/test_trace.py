"""The Paraver-style time-in-state view (``repro trace --format csv``,
:mod:`repro.obs.states`): a projection of the flight recorder's op
spans, checked standalone and through the runtime."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.obs import EventLog, OP_BEGIN, OP_END
from repro.obs.states import (
    StateRecord,
    find_outliers,
    load_csv,
    render_profile,
    state_records,
)
from repro.runtime import Runtime, RuntimeConfig
from repro.workloads import FieldParams, run_field


def span(log, thread, state, t0, t1):
    """Record one completed op span named like the state."""
    name, _, proto = state.partition(":")
    op = log.next_op_id()
    log.emit(t0, OP_BEGIN, op=op, thread=thread, name=name)
    log.emit(t1, OP_END, op=op, thread=thread,
             **({"proto": proto} if proto else {}))


def test_record_and_query():
    log = EventLog()
    span(log, 0, "compute", 0.0, 5.0)
    span(log, 1, "get:am", 5.0, 9.0)
    span(log, 0, "compute", 9.0, 10.0)
    recs = state_records(log)
    assert recs == [StateRecord(0, "compute", 0.0, 5.0),
                    StateRecord(1, "get:am", 5.0, 9.0),
                    StateRecord(0, "compute", 9.0, 10.0)]
    assert len([r for r in recs if r.state == "compute"]) == 2
    assert len([r for r in recs if r.thread == 1]) == 1
    assert recs[1].duration == 4.0


def test_records_come_out_in_completion_order():
    log = EventLog()
    outer, inner = log.next_op_id(), log.next_op_id()
    log.emit(0.0, OP_BEGIN, op=outer, thread=0, name="bulk_get")
    log.emit(1.0, OP_BEGIN, op=inner, thread=0, name="get")
    log.emit(2.0, OP_END, op=inner, thread=0, proto="rdma")
    log.emit(3.0, OP_END, op=outer, thread=0, proto="bulk")
    assert [r.state for r in state_records(log)] == ["get:rdma",
                                                     "bulk_get:bulk"]


def test_invalid_interval_rejected():
    import io
    with pytest.raises(ValueError, match="ends before it starts"):
        load_csv(io.StringIO("thread,state,t0,t1\r\n0,x,5.0,3.0\r\n"))


def test_max_records_bounds_memory():
    log = EventLog(max_events=4)
    for i in range(5):
        span(log, 0, "compute", i, i + 1)
    assert len(state_records(log)) == 2
    assert log.dropped_events == 6


def test_disabled_tracer_records_nothing():
    log = EventLog(enabled=False)
    span(log, 0, "compute", 0, 1)
    assert state_records(log) == []


def test_profile_time_by_state():
    log = EventLog()
    span(log, 0, "compute", 0, 8)
    span(log, 0, "get:am", 8, 10)
    rows = {line.split()[0]: line.split()
            for line in render_profile(log).splitlines()[1:]}
    assert rows["compute"][1:] == ["1", "8.0", "8.00", "8.00", "80.0%"]
    assert rows["get:am"][1:] == ["1", "2.0", "2.00", "2.00", "20.0%"]


def test_find_outliers():
    log = EventLog()
    for i in range(10):
        span(log, 0, "get:am", i, i + 1.0)   # duration 1
    span(log, 0, "get:am", 100, 150)         # duration 50: outlier
    out = find_outliers(state_records(log), "get:am", factor=4.0)
    assert len(out) == 1
    assert out[0].duration == 50.0
    assert find_outliers(state_records(log), "nothing") == []


def _bimodal_log():
    """90 fast cache-hit GETs (1us) + 10 slow miss GETs (20us)."""
    log = EventLog()
    now = 0.0
    for _ in range(90):
        span(log, 0, "get:rdma", now, now + 1.0)
        now += 1.0
    for _ in range(10):
        span(log, 0, "get:rdma", now, now + 20.0)
        now += 20.0
    return log


def test_find_outliers_mean_factor_on_bimodal_trace():
    recs = state_records(_bimodal_log())
    # mean = (90*1 + 10*20)/100 = 2.9us; factor 4 -> threshold 11.6us:
    # the mean-relative detector flags the entire slow mode.
    out = find_outliers(recs, "get:rdma", factor=4.0)
    assert len(out) == 10
    assert all(r.duration == 20.0 for r in out)


def test_find_outliers_percentile_on_bimodal_trace():
    log = _bimodal_log()
    recs = state_records(log)
    # p=95 lands inside the slow mode (threshold 20us), so only
    # records strictly above it qualify: none here...
    assert find_outliers(recs, "get:rdma", p=95) == []
    # ...while p=89 sits at the fast/slow boundary and flags exactly
    # the slow mode.
    out = find_outliers(recs, "get:rdma", p=89)
    assert len(out) == 10
    # A single 200us straggler is what p=99 is for.
    span(log, 0, "get:rdma", 1000.0, 1200.0)
    out = find_outliers(state_records(log), "get:rdma", p=99)
    assert [r.duration for r in out] == [200.0]


def test_find_outliers_percentile_validation():
    with pytest.raises(ValueError):
        find_outliers(state_records(_bimodal_log()), "get:rdma", p=101)


def test_find_outliers_checks_p_before_filtering():
    # An out-of-range percentile is the caller's error whether or not
    # the state has any records to rank.
    with pytest.raises(ValueError):
        find_outliers([], "get:rdma", p=101)
    with pytest.raises(ValueError):
        find_outliers(state_records(_bimodal_log()), "barrier", p=-5)


def test_render_profile_is_tabular():
    log = EventLog()
    span(log, 0, "compute", 0, 4)
    text = render_profile(log)
    assert "compute" in text and "share" in text
    assert "dropped" not in text


def test_render_profile_reports_dropped_records():
    # The cap cuts the log inside the second op: its op_begin made it,
    # its op_end did not.  Both the dropped events and the unmatched
    # begin are reported — never a silently short profile.
    log = EventLog(max_events=3)
    for i in range(5):
        span(log, 0, "compute", i, i + 1)
    text = render_profile(log)
    assert "compute       1" in text
    assert "7 event(s) dropped" in text
    assert "max_events cap" in text
    assert "1 op(s) begun but never ended" in text


def test_runtime_integration_records_ops():
    log = EventLog()
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=4, events=log, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        yield from th.compute(3.0)
        if th.id == 0:
            yield from th.get(arr, 40)   # remote: am (first touch)
            yield from th.get(arr, 41)   # remote: rdma (hit)
            yield from th.get(arr, 1)    # local
            yield from th.get(arr, 10)   # shm
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    recs = state_records(log)
    assert {"compute", "barrier", "get:am", "get:rdma", "get:local",
            "get:shm"} <= {r.state for r in recs}
    # The RDMA get must be faster than the AM get it followed.
    am = next(r for r in recs if r.state == "get:am")
    rdma = next(r for r in recs if r.state == "get:rdma")
    assert rdma.duration < am.duration


def test_paraver_finding_field_overhang_outliers():
    """Reproduce the paper's trace analysis: uncached Field on GM has
    abnormally large overhang GETs (section 4.6)."""
    log = EventLog()
    params = FieldParams(
        machine=GM_MARENOSTRUM, nthreads=16, threads_per_node=4,
        cache_enabled=False, seed=1, nelems=16 * 1024,
        ntokens=6, events=log)
    run_field(params)
    get_states = [r for r in state_records(log)
                  if r.state in ("get:am", "get:rdma")]
    assert get_states, "field must do remote gets"
    durations = sorted(r.duration for r in get_states)
    # Heavy tail: the slowest uncached overhang GET dwarfs the median.
    assert durations[-1] > 4 * durations[len(durations) // 2]
