"""Unit tests for polling vs interrupt progress engines."""

import pytest

from repro.network import GM_TRANSPORT, LAPI_TRANSPORT
from repro.network.node import Node
from repro.network.progress import (
    InterruptProgress,
    PollingProgress,
    make_progress,
)
from repro.sim import Simulator

from tests.sim.reference_core import BOTH_CORES


def make_node(params):
    sim = Simulator()
    node = Node(sim, 0, params)
    node.progress = make_progress(sim, node, params)
    return sim, node


def test_factory_picks_engine_by_params():
    _, gm_node = make_node(GM_TRANSPORT)
    _, lapi_node = make_node(LAPI_TRANSPORT)
    assert isinstance(gm_node.progress, PollingProgress)
    assert isinstance(lapi_node.progress, InterruptProgress)


def test_interrupt_services_promptly_even_without_pollers():
    sim, node = make_node(LAPI_TRANSPORT)

    def handler():
        yield from node.progress.service()
        return sim.now

    t = sim.run_process(handler())
    assert t == pytest.approx(LAPI_TRANSPORT.interrupt_us)


def test_polling_blocks_until_a_thread_enters_runtime():
    sim, node = make_node(GM_TRANSPORT)
    served_at = []

    def handler():
        yield from node.progress.service()
        served_at.append(sim.now)

    def app_thread():
        yield sim.timeout(50.0)           # long compute, no polling
        node.progress.enter_runtime()     # now inside the runtime
        yield sim.timeout(1.0)
        node.progress.leave_runtime()

    sim.process(handler())
    sim.process(app_thread())
    sim.run()
    assert served_at == [pytest.approx(50.0 + GM_TRANSPORT.dispatch_us)]


def test_polling_services_fast_when_someone_is_polling():
    sim, node = make_node(GM_TRANSPORT)
    node.progress.enter_runtime()

    def handler():
        yield from node.progress.service()
        return sim.now

    t = sim.run_process(handler())
    assert t == pytest.approx(GM_TRANSPORT.dispatch_us)


def test_poll_tick_wakes_waiting_handlers_once():
    sim, node = make_node(GM_TRANSPORT)
    served = []

    def handler():
        yield from node.progress.service()
        served.append(sim.now)

    def computer():
        yield sim.timeout(10.0)
        node.progress.poll()              # momentary tick
        yield sim.timeout(10.0)

    sim.process(handler())
    sim.process(computer())
    sim.run()
    assert served == [pytest.approx(10.0 + GM_TRANSPORT.dispatch_us)]


def test_backlog_transitions_recorded_between_poll_ticks():
    """The §4.6 backlog builds and drains entirely *between* sampler
    ticks; the progress engine must push every enqueue/drain edge the
    moment it happens, and track the peak."""
    sim, node = make_node(GM_TRANSPORT)
    edges = []

    class _Sampler:
        def backlog_transition(self, node_id, depth):
            edges.append((sim.now, node_id, depth))

    class _Metrics:
        max_backlog = 0

    node.progress.sampler = _Sampler()
    metrics = _Metrics()
    node.progress.metrics = metrics

    def handler():
        yield from node.progress.service()

    def app():
        yield sim.timeout(20.0)      # long compute slice, no polling
        node.progress.enter_runtime()

    sim.process(handler())
    sim.process(handler())
    sim.process(app())
    sim.run()
    # Two enqueues while nobody polled, then the single drain edge.
    assert [d for _, _, d in edges] == [1, 2, 0]
    assert all(nid == 0 for _, nid, _ in edges)
    assert edges[0][0] < 20.0 and edges[1][0] < 20.0
    assert node.progress.max_backlog == 2
    assert metrics.max_backlog == 2


@BOTH_CORES
def test_parked_handlers_wake_in_arrival_order_on_both_cores(core):
    """Handlers park on the engine (``yield engine`` inside service())
    and one enter_runtime() wakes them all.  The fast core resumes each
    through its wake token, the reference core through a Timeout; the
    pinned literals are the same for both."""
    sim = core()
    node = Node(sim, 0, GM_TRANSPORT)
    engine = node.progress = make_progress(sim, node, GM_TRANSPORT)
    trace = []

    def handler(tag, arrive):
        yield arrive
        trace.append((sim.now, tag, "arrives"))
        yield from engine.service()
        trace.append((sim.now, tag, "served"))

    def app():
        yield 5.0
        engine.enter_runtime()
        yield 1.0
        engine.leave_runtime()

    # h0-h3 park while nobody polls; h4 arrives while app polls.
    arrivals = (0.0, 1.0, 2.0, 2.0, 5.5)
    for i, arrive in enumerate(arrivals):
        sim.process(handler(f"h{i}", arrive))
    sim.process(app())
    sim.run()
    d = GM_TRANSPORT.dispatch_us
    assert d > 0.5      # h4 arrives while h0-h3 are being dispatched
    served = [5.0 + d] * 4 + [5.5 + d]
    assert trace == (
        [(t, f"h{i}", "arrives") for i, t in enumerate(arrivals)]
        + [(t, f"h{i}", "served") for i, t in enumerate(served)])
    assert sim.events_processed == 28
    assert engine.serviced == 5
    assert engine.max_backlog == 4


def test_max_backlog_reaches_metrics_summary():
    from repro.runtime.metrics import RuntimeMetrics

    m = RuntimeMetrics()
    assert m.summary()["max_backlog"] == 0
    m.max_backlog = 7
    assert m.summary()["max_backlog"] == 7


def test_leave_without_enter_rejected():
    _, node = make_node(GM_TRANSPORT)
    with pytest.raises(RuntimeError):
        node.progress.leave_runtime()


def test_wait_time_accounting():
    sim, node = make_node(GM_TRANSPORT)

    def handler():
        yield from node.progress.service()
        return sim.now

    def app():
        yield sim.timeout(30.0)
        node.progress.enter_runtime()

    started = sim.process(handler())
    sim.process(app())
    sim.run()
    assert node.progress.serviced == 1
    # Parked from t=0 until the first poller, then dispatched.
    assert started.value == pytest.approx(30.0 + GM_TRANSPORT.dispatch_us)


def test_unknown_progress_kind_rejected():
    # Rejected at parameter construction (validation) ...
    with pytest.raises(ValueError):
        GM_TRANSPORT.with_overrides(progress="quantum")
    # ... and by the factory, should an invalid value sneak through.
    import dataclasses
    sim = Simulator()
    node = Node(sim, 0, GM_TRANSPORT)
    params = dataclasses.replace  # keep flake quiet
    forged = object.__new__(type(GM_TRANSPORT))
    object.__setattr__(forged, "progress", "quantum")
    with pytest.raises(ValueError):
        make_progress(sim, node, forged)
