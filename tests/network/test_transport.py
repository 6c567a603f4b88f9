"""Unit tests for the AM + RDMA transport protocols."""

import pytest

from repro.network import (
    Cluster,
    GM_MARENOSTRUM,
    LAPI_POWER5,
)
from repro.sim import Simulator
from repro.util import KB, MB
from tests.core.pin_log import PinLog


def make(machine=GM_MARENOSTRUM, nnodes=4):
    sim = Simulator()
    cluster = Cluster(sim, machine, nnodes)
    # A benchmark-style idle target: someone is polling everywhere.
    for node in cluster.nodes:
        node.progress.enter_runtime()
        node.pins = PinLog.like(node.pins)
    return sim, cluster


def test_default_get_roundtrip_returns_handler_payload():
    sim, cluster = make()
    src, dst = cluster.node(0), cluster.node(1)

    def handler(node):
        return 1.5, {"base": 0xBEEF}, 16

    def bench():
        reply = yield from cluster.transport.default_get(src, dst, 8, handler)
        return reply

    reply = sim.run_process(bench())
    assert reply == {"base": 0xBEEF}
    assert dst.progress.serviced == 1
    assert dst.pins.misses == 0      # eager: nothing registered


def test_default_get_latency_grows_with_distance():
    sim1, c1 = make()
    sim2, c2 = make()

    def bench(sim, cluster, dst_id):
        def run():
            yield from cluster.transport.default_get(
                cluster.node(0), cluster.node(dst_id), 8)
            return sim.now
        return sim.run_process(run())

    near = bench(sim1, c1, 1)             # same linecard: 1 hop
    sim3, c3 = make(nnodes=256)
    far = bench(sim3, c3, 200)            # cross-group: 5 hops
    assert far > near


def test_rdma_get_faster_than_default_get_small_gm():
    # The core premise of the optimization (Figure 3, Figure 7).
    sim, cluster = make()
    src, dst = cluster.node(0), cluster.node(1)

    def default():
        t0 = sim.now
        yield from cluster.transport.default_get(src, dst, 8,
                                                 lambda n: (1.5, None, 0))
        return sim.now - t0

    def rdma():
        t0 = sim.now
        yield from cluster.transport.rdma_get(src, dst, 8)
        return sim.now - t0

    t_default = sim.run_process(default())
    t_rdma = sim.run_process(rdma())
    assert t_rdma < t_default


def test_rdma_get_uses_no_target_cpu():
    # Target node never polls: the AM path would deadlock-wait, RDMA
    # must complete regardless (Figure 3b: no CPU involvement).
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, 2)

    def run():
        yield from cluster.transport.rdma_get(
            cluster.node(0), cluster.node(1), 4096)
        return sim.now

    t = sim.run_process(run())
    assert t > 0
    assert cluster.node(1).progress.serviced == 0


def test_eager_vs_rendezvous_protocol_selection():
    sim, cluster = make()
    tr = cluster.transport
    src, dst = cluster.node(0), cluster.node(1)

    def run(n):
        yield from tr.default_get(src, dst, n)

    # Only rendezvous registers the served region at the target.
    sim.run_process(run(16 * KB))           # at the threshold: eager
    assert dst.pins.misses == 0
    sim.run_process(run(16 * KB + 1))       # above: rendezvous
    assert dst.pins.misses == 1


def test_rendezvous_registration_amortized_by_pin_down_cache():
    sim, cluster = make()
    tr = cluster.transport
    src, dst = cluster.node(0), cluster.node(1)

    def run():
        t0 = sim.now
        yield from tr.default_get(src, dst, 1 * MB)
        first = sim.now - t0
        t0 = sim.now
        yield from tr.default_get(src, dst, 1 * MB)
        second = sim.now - t0
        return first, second

    first, second = sim.run_process(run())
    assert second < first                  # registration cached
    assert dst.pins.hits >= 1


def test_default_put_local_completion_before_remote_apply():
    sim, cluster = make()
    src, dst = cluster.node(0), cluster.node(1)

    def run():
        applied = yield from cluster.transport.default_put(src, dst, 256)
        local_done = sim.now
        yield applied
        return local_done, sim.now

    local_done, remote_done = sim.run_process(run())
    assert remote_done > local_done        # overlap window exists


def test_rdma_put_gm_completes_locally():
    sim, cluster = make()
    src, dst = cluster.node(0), cluster.node(1)

    def run():
        applied = yield from cluster.transport.rdma_put(src, dst, 256)
        local_done = sim.now
        yield applied
        return local_done, sim.now

    local_done, remote_done = sim.run_process(run())
    assert remote_done > local_done


def test_rdma_put_lapi_waits_for_remote_ack():
    sim, cluster = make(LAPI_POWER5, 2)
    src, dst = cluster.node(0), cluster.node(1)

    def run():
        applied = yield from cluster.transport.rdma_put(src, dst, 256)
        local_done = sim.now
        assert applied.triggered
        return local_done

    sim.run_process(run())


def test_lapi_rdma_put_slower_than_default_put_small():
    # Figure 6 right panel: the -200% effect, the reason the paper
    # disabled the cache for LAPI PUTs.
    sim, cluster = make(LAPI_POWER5, 2)
    src, dst = cluster.node(0), cluster.node(1)

    def t_default():
        t0 = sim.now
        yield from cluster.transport.default_put(src, dst, 64)
        return sim.now - t0

    def t_rdma():
        t0 = sim.now
        yield from cluster.transport.rdma_put(src, dst, 64)
        return sim.now - t0

    td = sim.run_process(t_default())
    tr = sim.run_process(t_rdma())
    assert tr > 1.5 * td


def test_nic_is_shared_between_concurrent_senders():
    sim, cluster = make()
    src, dst = cluster.node(0), cluster.node(1)
    done = []

    def sender(tag):
        yield from cluster.transport.default_put(src, dst, 8 * KB)
        done.append((tag, sim.now))

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    # Serialization through the single NIC staggers completions.
    assert done[0][1] < done[1][1]


def test_am_oneway_completes_at_target():
    sim, cluster = make()
    seen = []

    def handler(node):
        seen.append(node.id)
        return 0.5, None, 0

    ev = cluster.transport.am_oneway(cluster.node(0), cluster.node(2),
                                     64, handler)
    sim.run()
    assert ev.triggered
    assert seen == [2]


def test_wire_time_and_copy_time_scale_linearly():
    p = GM_MARENOSTRUM.transport
    assert p.wire_time(2000) == pytest.approx(2 * p.wire_time(1000))
    assert p.copy_time(2000) == pytest.approx(2 * p.copy_time(1000))
    assert p.fragments(1) == 1
    assert p.fragments(p.frag_bytes + 1) == 2


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cluster(sim, GM_MARENOSTRUM, 0)
