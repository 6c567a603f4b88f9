"""Transport accounting: every wire operation is on the flight
recorder, the transport's one account of what crossed the fabric."""

import pytest

from repro.network import Cluster, GM_MARENOSTRUM
from repro.obs import EventLog
from repro.obs.events import (
    AM_REPLY_RECV,
    AM_REPLY_SEND,
    AM_SEND,
    RDMA_COMPLETE,
    RDMA_ISSUE,
)
from repro.sim import Simulator
from repro.util import KB, MB


def make(nnodes=3):
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, nnodes)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    cluster.transport.events = EventLog()
    return sim, cluster


def test_counters_track_every_operation():
    sim, cluster = make()
    tr = cluster.transport
    log = tr.events
    a, b, c = cluster.nodes

    def run():
        yield from tr.default_get(a, b, 256)          # eager AM
        yield from tr.default_get(a, c, 1 * MB)       # rendezvous AM
        yield from tr.rdma_get(a, b, 512)
        t1 = yield from tr.default_put(a, c, 128)
        t2 = yield from tr.rdma_put(a, b, 128)
        yield t1
        _ = t2

    sim.run_process(run())
    sim.run()
    assert [(e.attrs["dst"], e.attrs["nbytes"]) for e in log.by_kind(AM_SEND)] \
        == [(1, tr.params.ctrl_bytes), (2, tr.params.ctrl_bytes),
            (2, 128 + tr.params.ctrl_bytes)]
    # Puts don't reply; both gets do.
    assert len(log.by_kind(AM_REPLY_SEND)) == 2
    assert len(log.by_kind(AM_REPLY_RECV)) == 2
    assert sum(e.attrs["nbytes"] for e in log.by_kind(RDMA_ISSUE)) \
        == 512 + 128
    assert len(log.by_kind(RDMA_COMPLETE)) == 2
    # Only the rendezvous GET registered buffers, one at each end.
    assert [len(n.pins) for n in (a, b, c)] == [1, 0, 1]


def test_wire_log_bytes_at_least_payload():
    sim, cluster = make(2)
    tr = cluster.transport

    def run():
        yield from tr.default_get(cluster.node(0), cluster.node(1),
                                  8 * KB)

    sim.run_process(run())
    # Request + reply; reply carries payload + headers.
    sent = tr.events.by_kind(AM_SEND) + tr.events.by_kind(AM_REPLY_SEND)
    assert sum(e.attrs["nbytes"] for e in sent) \
        >= 8 * KB + 2 * tr.params.ctrl_bytes


def test_latency_monotone_in_message_size():
    sim, cluster = make(2)
    tr = cluster.transport

    def timed(n):
        def run():
            t0 = sim.now
            yield from tr.default_get(cluster.node(0), cluster.node(1), n)
            return sim.now - t0
        return sim.run_process(run())

    sizes = [1, 64, 4 * KB, 64 * KB, 1 * MB]
    lats = [timed(n) for n in sizes]
    # Warm path (registration cached): latency must be non-decreasing.
    assert all(a <= b * 1.001 for a, b in zip(lats, lats[1:]))


def test_zero_latency_for_self_wire():
    sim, cluster = make(2)
    topo = cluster.topology
    assert topo.latency(1, 1) == 0.0
    assert topo.latency(0, 1) > 0.0
