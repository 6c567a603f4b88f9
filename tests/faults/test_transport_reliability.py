"""Transport-level recovery protocols under a hostile fault plan."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkRule,
    ReliabilityConfig,
    ReliabilityError,
)
from repro.network import Cluster, GM_MARENOSTRUM
from repro.sim import Simulator


def make(plan=None, reliability=None, nnodes=4):
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, nnodes)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    tp = cluster.transport
    if reliability is not None:
        tp.reliability = reliability
    if plan is not None:
        tp.faults = FaultInjector(plan, sim)
    return sim, cluster


def counting_handler(box):
    def handler(node):
        box["runs"] = box.get("runs", 0) + 1
        return 1.5, {"base": 0xBEEF}, 16
    return handler


def test_retry_recovers_from_a_transient_drop_window():
    # Every message in [0, 10) drops; the retransmission after the
    # first timeout lands in a healthy fabric and completes the GET.
    plan = FaultPlan(seed=1, links=(
        LinkRule.static(loss=1.0, t_end=10.0, scope="am"),))
    sim, cluster = make(plan, ReliabilityConfig(am_timeout_us=30.0))
    src, dst = cluster.node(0), cluster.node(1)
    box = {}

    def bench():
        reply = yield from cluster.transport.default_get(
            src, dst, 8, counting_handler(box))
        return reply

    reply = sim.run_process(bench())
    assert reply.payload == {"base": 0xBEEF}
    assert box["runs"] == 1                       # handler ran once
    c = cluster.transport.counters.by_kind
    assert c.get("am-timeout", 0) >= 1
    assert c.get("am-retry", 0) >= 1


def test_retry_budget_exhaustion_raises_reliability_error():
    plan = FaultPlan(seed=2, links=(
        LinkRule.static(loss=1.0, scope="am"),))
    sim, cluster = make(plan, ReliabilityConfig(
        am_timeout_us=20.0, max_retries=2, backoff_base_us=1.0,
        backoff_max_us=4.0))
    src, dst = cluster.node(0), cluster.node(1)

    def bench():
        yield from cluster.transport.default_get(
            src, dst, 8, lambda n: (1.0, None, 0))

    with pytest.raises(ReliabilityError, match="gave up after 2"):
        sim.run_process(bench())


def test_dropped_reply_releases_the_initiator_credit():
    # The request arrives, the handler runs, the reply vanishes.  The
    # retransmission is answered from the dedup ledger; through it all
    # the per-destination credit pool must end the op fully released.
    plan = FaultPlan(seed=6, links=(
        LinkRule.static(loss=1.0, t_end=5.0, scope="am"),))
    sim, cluster = make(plan, ReliabilityConfig(am_timeout_us=30.0))
    src, dst = cluster.node(0), cluster.node(1)
    box = {}

    def bench():
        reply = yield from cluster.transport.default_get(
            src, dst, 8, counting_handler(box))
        return reply

    reply = sim.run_process(bench())
    assert reply.payload == {"base": 0xBEEF}
    assert cluster.transport._credit_pool(dst)._users == 0


def test_duplicate_delivery_is_absorbed_by_the_ledger():
    plan = FaultPlan(seed=3, links=(
        LinkRule.static(duplicate=1.0, scope="am"),))
    sim, cluster = make(plan)
    src, dst = cluster.node(0), cluster.node(1)
    box = {}

    def bench():
        reply = yield from cluster.transport.default_get(
            src, dst, 8, counting_handler(box))
        return reply

    reply = sim.run_process(bench())
    sim.run()                                     # drain the dup flight
    assert reply.payload == {"base": 0xBEEF}
    assert box["runs"] == 1                       # idempotent: one run
    c = cluster.transport.counters.by_kind
    assert c.get("am-duplicate-delivery", 0) >= 1


def test_ledger_replay_returns_original_payload_without_handler():
    # A replayed request (lost reply) must be answered from the ledger
    # even if the handler would now return something different.  Seed 8
    # makes the first drop draw pick the *reply* leg, so the handler
    # runs on attempt one and the retransmission finds the ledger.
    plan = FaultPlan(seed=8, links=(
        LinkRule.static(loss=1.0, t_end=5.0, scope="am"),))
    sim, cluster = make(plan, ReliabilityConfig(am_timeout_us=30.0))
    src, dst = cluster.node(0), cluster.node(1)
    box = {"value": "first"}

    def mutating_handler(node):
        val = box["value"]
        box["value"] = "second"
        return 1.0, val, 0

    def bench():
        reply = yield from cluster.transport.default_get(
            src, dst, 8, mutating_handler)
        return reply

    reply = sim.run_process(bench())
    assert reply.payload == "first"
    assert cluster.transport.counters.by_kind.get("am-replay", 0) >= 1


def test_rdma_get_drop_reports_failure_and_charges_timeout():
    plan = FaultPlan(seed=5, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    rel = ReliabilityConfig(rdma_timeout_us=40.0)
    sim, cluster = make(plan, rel)
    src, dst = cluster.node(0), cluster.node(1)

    def bench():
        t0 = sim.now
        ok = yield from cluster.transport.rdma_get(src, dst, 64)
        return ok, sim.now - t0

    ok, elapsed = sim.run_process(bench())
    assert ok is False
    assert elapsed >= rel.rdma_timeout_us
    assert cluster.transport.counters.by_kind.get("rdma-timeout", 0) == 1


def test_rdma_put_drop_returns_none():
    plan = FaultPlan(seed=7, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    sim, cluster = make(plan, ReliabilityConfig(rdma_timeout_us=40.0))
    src, dst = cluster.node(0), cluster.node(1)

    def bench():
        ticket = yield from cluster.transport.rdma_put(src, dst, 64)
        return ticket

    assert sim.run_process(bench()) is None


def test_healthy_fabric_with_injector_matches_no_injector():
    # A plan whose rules never fire (prob 0 outside any window) must
    # not perturb timing: the fault plane only costs where it bites.
    sim_a, cluster_a = make()
    plan = FaultPlan(seed=8, links=(
        LinkRule.static(loss=1.0, t_start=1e9, scope="am"),))
    sim_b, cluster_b = make(plan)

    def bench(sim, cluster):
        def run():
            yield from cluster.transport.default_get(
                cluster.node(0), cluster.node(1), 8,
                lambda n: (1.5, None, 0))
            return sim.now
        return sim.run_process(run())

    assert bench(sim_a, cluster_a) == bench(sim_b, cluster_b)
