"""Transport accounting: every wire operation is on the flight
recorder, the transport's one account of what crossed the fabric."""

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

from tests.sim.drive import finish


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

    finish(sim, run())
    sim.run()
    ctrl = tr.params.ctrl_bytes
    assert [(e.node, e.attrs["dst"], e.attrs["nbytes"])
            for e in log.by_kind(AM_SEND)] \
        == [(0, 1, ctrl), (0, 2, ctrl), (0, 2, 128 + ctrl)]
    # Puts don't reply; both gets do, from their targets, each reply
    # carrying the payload and a header.
    assert [(e.node, e.attrs["nbytes"]) for e in log.by_kind(AM_REPLY_SEND)] \
        == [(1, 256 + ctrl), (2, 1 * MB + ctrl)]
    assert [e.node for e in log.by_kind(AM_REPLY_RECV)] == [0, 0]
    assert [(e.node, e.attrs["dst"], e.attrs["nbytes"])
            for e in log.by_kind(RDMA_ISSUE)] == [(0, 1, 512), (0, 1, 128)]
    assert len(log.by_kind(RDMA_COMPLETE)) == 2
    # Only the rendezvous GET registered buffers, one at each end.
    assert [len(n.pins) for n in (a, b, c)] == [1, 0, 1]


def test_latency_monotone_in_message_size():
    sim, cluster = make(2)
    tr = cluster.transport

    def timed(n):
        def run():
            t0 = sim.now
            yield from tr.default_get(cluster.node(0), cluster.node(1), n)
            return sim.now - t0
        return finish(sim, run())

    sizes = [1, 64, 4 * KB, 64 * KB, 1 * MB]
    lats = [timed(n) for n in sizes]
    # Warm path (registration cached): latency must be non-decreasing.
    assert all(a <= b * 1.001 for a, b in zip(lats, lats[1:]))


def test_zero_latency_for_self_wire():
    sim, cluster = make(2)
    topo = cluster.topology
    assert topo.latency(1, 1) == 0.0
    assert topo.latency(0, 1) > 0.0
