"""Protocol shapes on the flight recorder, and credit-based eager
flow control."""

from repro.network import Cluster, GM_MARENOSTRUM
from repro.obs import EventLog
from repro.obs.events import (
    AM_REPLY_RECV,
    AM_REPLY_SEND,
    AM_SEND,
    COMP_WIRE,
    HANDLER_BEGIN,
    PHASE,
    RDMA_COMPLETE,
    RDMA_ISSUE,
)
from repro.sim import Simulator
from repro.util import KB, MB


def make(machine=GM_MARENOSTRUM, nnodes=2, **overrides):
    from dataclasses import replace
    sim = Simulator()
    if overrides:
        machine = replace(
            machine,
            transport=machine.transport.with_overrides(**overrides))
    cluster = Cluster(sim, machine, nnodes)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    return sim, cluster


def recorded(cluster) -> EventLog:
    """Arm the flight recorder on a bare cluster; returns the log."""
    log = EventLog()
    cluster.transport.events = log
    return log


# ---------------------------------------------------- protocol shapes

def test_eager_get_produces_request_and_reply():
    sim, cluster = make()
    log = recorded(cluster)
    ctrl = cluster.params.ctrl_bytes

    def run():
        yield from cluster.transport.default_get(
            cluster.node(0), cluster.node(1), 256)

    sim.run_process(run())
    [req] = log.by_kind(AM_SEND)
    assert (req.node, req.attrs["dst"], req.attrs["nbytes"]) == (0, 1, ctrl)
    [reply] = log.by_kind(AM_REPLY_SEND)
    assert reply.node == 1 and reply.attrs["nbytes"] >= 256
    assert [e.node for e in log.by_kind(AM_REPLY_RECV)] == [0]


def test_rendezvous_put_protocol_shape():
    # RTS out, a bare CTS back (no data reply), then the zero-copy
    # data leg serialized through the initiator's NIC.
    sim, cluster = make()
    log = recorded(cluster)
    p = cluster.params

    def run():
        yield from cluster.transport.default_put(
            cluster.node(0), cluster.node(1), 1 * MB, op_id=7)

    sim.run_process(run())
    sim.run()
    [rts] = log.by_kind(AM_SEND)
    assert rts.attrs["nbytes"] == p.ctrl_bytes
    assert [e.node for e in log.by_kind(HANDLER_BEGIN)] == [1]
    assert not log.by_kind(AM_REPLY_SEND)
    wire = [e.attrs["dur"] for e in log.by_kind(PHASE)
            if e.attrs["comp"] == COMP_WIRE]
    assert max(wire) >= p.wire_time(1 * MB)


def test_rdma_messages_logged():
    sim, cluster = make()
    log = recorded(cluster)

    def run():
        yield from cluster.transport.rdma_get(
            cluster.node(0), cluster.node(1), 512)
        yield from cluster.transport.rdma_put(
            cluster.node(0), cluster.node(1), 512)

    sim.run_process(run())
    sim.run()
    assert [(e.node, e.attrs["dst"], e.attrs["nbytes"])
            for e in log.by_kind(RDMA_ISSUE)] == [(0, 1, 512)] * 2
    assert len(log.by_kind(RDMA_COMPLETE)) == 2


# ----------------------------------------------------------- credits

def test_credits_limit_outstanding_eager_puts():
    # With one credit, a second eager PUT must wait for the first to
    # be consumed at the target.
    sim, cluster = make(eager_credits=1)
    src, dst = cluster.node(0), cluster.node(1)
    done = []

    def sender(tag):
        yield from cluster.transport.default_put(src, dst, 128)
        done.append((tag, sim.now))

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    # Compare against an uncontended run with ample credits.
    sim2, cluster2 = make(eager_credits=64)
    done2 = []

    def sender2(tag):
        yield from cluster2.transport.default_put(
            cluster2.node(0), cluster2.node(1), 128)
        done2.append((tag, sim2.now))

    sim2.process(sender2("a"))
    sim2.process(sender2("b"))
    sim2.run()
    assert done[1][1] > done2[1][1]  # credit stall visible


def test_rdma_ignores_credits():
    # RDMA bypasses receive buffers entirely: even with zero spare
    # credits the one-sided path proceeds.
    sim, cluster = make(eager_credits=1)
    src, dst = cluster.node(0), cluster.node(1)
    pool = dst.credits
    assert pool.acquire_now()          # exhaust the single credit

    def run():
        yield from cluster.transport.rdma_get(src, dst, 4 * KB)
        return sim.now

    t = sim.run_process(run())
    assert t > 0


def test_credit_pool_returns_to_full():
    sim, cluster = make(eager_credits=4)
    src, dst = cluster.node(0), cluster.node(1)

    def run():
        for _ in range(6):
            yield from cluster.transport.default_put(src, dst, 64)

    sim.run_process(run())
    sim.run()
    pool = dst.credits
    assert pool.in_use == 0            # all credits returned