"""Tests for the latency-breakdown analyzer.

The differential check of the observability issue: for every analyzed
remote op the component decomposition must sum to the end-to-end
latency (software is the residual, so the sum is exact by
construction — the meaningful invariant is that the *measured*
components never exceed the op's span, i.e. software >= 0).
"""

import pytest

from repro.network import GM_MARENOSTRUM, LAPI_POWER5
from repro.obs import (
    COMP_SOFTWARE,
    COMPONENTS,
    EventLog,
    OP_BEGIN,
    OP_END,
    PHASE,
    collect_breakdowns,
    render_breakdown,
    summarize,
)
from repro.runtime import Runtime, RuntimeConfig


def _synthetic_log():
    log = EventLog()
    log.emit(0.0, OP_BEGIN, op=1, thread=0, node=0, name="get")
    log.emit(2.0, PHASE, op=1, comp="wire", dur=2.0)
    log.emit(5.0, PHASE, op=1, comp="handler", dur=3.0)
    log.emit(7.0, PHASE, op=1, comp="wire", dur=2.0)
    log.emit(10.0, OP_END, op=1, thread=0, node=0, proto="am",
             nbytes=8)
    return log


def test_synthetic_breakdown_components():
    bds = collect_breakdowns(_synthetic_log())
    assert len(bds) == 1
    bd = bds[0]
    assert bd.end_to_end == 10.0
    assert bd.wire == 4.0
    assert bd.handler == 3.0
    assert bd.queue == 0.0
    # software = 10 - (4 + 3) = 3: the residual.
    assert bd.software == pytest.approx(3.0)
    assert sum(map(bd.component, COMPONENTS)) == pytest.approx(bd.end_to_end)


def test_phases_after_op_end_are_excluded():
    log = _synthetic_log()
    # A detached continuation (e.g. a put tail) lands after op end.
    log.emit(20.0, PHASE, op=1, comp="wire", dur=5.0)
    (bd,) = collect_breakdowns(log)
    assert bd.wire == 4.0


def test_name_and_proto_filters():
    log = _synthetic_log()
    log.emit(11.0, OP_BEGIN, op=2, thread=0, node=0, name="get")
    log.emit(12.0, OP_END, op=2, thread=0, node=0, proto="local")
    assert len(collect_breakdowns(log)) == 1  # local filtered out
    assert len(collect_breakdowns(log, protos=("local",))) == 1
    assert collect_breakdowns(log, names=("put",)) == []


def _run_recorded(machine, nthreads=8, tpn=2, **cfg_kw):
    log = EventLog()
    cfg = RuntimeConfig(machine=machine, nthreads=nthreads,
                        threads_per_node=tpn, seed=1, events=log,
                        **cfg_kw)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(512, blocksize=16, dtype="u8")
        yield from th.barrier()
        peer = (th.id + th.nthreads // 2) % th.nthreads
        for i in range(10):
            idx = (peer * 16 + i) % 512
            v = yield from th.get(arr, idx)
            yield from th.put(arr, idx, arr.dtype.type(v + 1))
        yield from th.memget(arr, 0, 256)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    return log


@pytest.mark.parametrize("machine", [GM_MARENOSTRUM, LAPI_POWER5])
def test_real_run_components_sum_to_end_to_end(machine):
    log = _run_recorded(machine)
    bds = collect_breakdowns(log)
    assert bds, "remote GETs must have been recorded"
    for bd in bds:
        # Measured phases are disjoint regions of the blocking path:
        # they can never exceed the op's own span.
        assert bd.software >= -1e-9, (
            f"op {bd.op} ({bd.proto}): measured components "
            f"{bd.end_to_end - bd.software:.3f}us exceed end-to-end "
            f"{bd.end_to_end:.3f}us")
        assert sum(map(bd.component, COMPONENTS)) == pytest.approx(
            bd.end_to_end, rel=1e-9)
    summary = summarize(bds)
    # The acceptance bar: component means sum to the e2e mean within 1%.
    assert summary.component_mean_sum == pytest.approx(
        summary.e2e_mean, rel=0.01)


def test_summary_and_render():
    log = _run_recorded(GM_MARENOSTRUM)
    bds = collect_breakdowns(log)
    s = summarize(bds)
    assert s.n_ops == len(bds)
    assert set(s.by_component) == set(COMPONENTS)
    assert s.by_component[COMP_SOFTWARE].mean > 0  # o_sw is real
    text = render_breakdown(bds)
    assert "software" in text and "wire" in text
    assert "error" in text


def test_render_empty():
    assert "no remote operations" in render_breakdown([])
