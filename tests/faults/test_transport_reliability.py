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
from repro.obs import EventLog
from repro.runtime import Runtime, RuntimeConfig
from repro.sim import Simulator


def make(plan=None, reliability=None, nnodes=4, events=None):
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, nnodes)
    for node in cluster.nodes:
        node.progress.enter_runtime()
        node.progress.events = events
    tp = cluster.transport
    tp.events = events
    if reliability is not None:
        tp.reliability = reliability
    if plan is not None:
        tp.faults = FaultInjector(plan, sim, events=events)
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


# -- the five AM protocols through the one attempt loop ---------------------

#: Above GM's 16 KB eager cut-over: the rendezvous protocols.
RDV = 64 * 1024


def _get(nbytes):
    def drive(cluster, box):
        yield from cluster.transport.default_get(
            cluster.node(0), cluster.node(1), nbytes,
            counting_handler(box), op_id=7)
    return drive


def _put(nbytes):
    def drive(cluster, box):
        ticket = yield from cluster.transport.default_put(
            cluster.node(0), cluster.node(1), nbytes,
            counting_handler(box), op_id=7)
        yield ticket.remote_applied
    return drive


def _oneway(cluster, box):
    yield cluster.transport.am_oneway(
        cluster.node(0), cluster.node(1), 64, counting_handler(box))


PROTOCOLS = {"eager-get": _get(8), "rdv-get": _get(RDV),
             "eager-put": _put(8), "rdv-put": _put(RDV),
             "oneway": _oneway}


def drive(protocol, plan=None, reliability=None, recorded=False):
    """Run one op of ``protocol`` to completion, then drain detached
    flights.  Returns (completion time, events processed, by_kind
    counters, handler runs, recorder stream)."""
    log = EventLog() if recorded else None
    sim, cluster = make(plan, reliability, events=log)
    box = {}

    def main():
        yield from PROTOCOLS[protocol](cluster, box)
        return sim.now

    done_at = sim.run_process(main())
    sim.run()
    stream = [(e.t, e.kind, e.op, e.node) for e in log] if recorded else None
    return (done_at, sim.events_processed,
            dict(cluster.transport.counters.by_kind), box.get("runs", 0),
            stream)


@pytest.mark.parametrize("recorded", [False, True],
                         ids=["recorder-off", "recorder-on"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_dormant_rule_is_invisible_on_every_am_protocol(protocol, recorded):
    # The lossless fabric is the NO_FAULT instance of the attempt
    # loop: an installed injector whose rule never fires must give the
    # same completion time, event count and recorder stream as none.
    dormant = FaultPlan(seed=8, links=(
        LinkRule.static(loss=1.0, t_start=1e9, scope="am"),))
    bare = drive(protocol, recorded=recorded)
    assert drive(protocol, dormant, recorded=recorded) == bare
    _done_at, _events, by_kind, runs, stream = bare
    assert by_kind == {} and runs == 1
    assert stream if recorded else stream is None


#: protocol -> (plan seed, loss window, completion time, simulator
#: events, by_kind).  The window swallows exactly the first two
#: attempts (of the RTS/CTS handshake for "rdv-put", of the detached
#: data leg for "rdv-put-data"); every literal was
#: generated at the parent of PR 22 (four hand-written retransmit
#: loops), so the single loop is held to each old loop's schedule —
#: including the re-injection the PUT data leg pays after backoff and
#: the per-attempt re-injection of the one-way path.
RECOVERY_PINS = {
    "eager-get": (1, (0.0, 40.0), 86.59509277343749, 24,
                  {"am-timeout": 2, "am-retry": 2, "am-replay": 1}),
    "rdv-get": (3, (0.0, 40.0), 586.8986328125002, 22,
                {"am-timeout": 2, "am-retry": 2, "am-replay": 1}),
    "eager-put": (1, (0.0, 40.0), 81.83923339843749, 16,
                  {"am-timeout": 2, "am-retry": 2}),
    "rdv-put": (3, (0.0, 80.0), 354.28828125, 26,
                {"am-timeout": 2, "am-retry": 2, "am-replay": 1}),
    "rdv-put-data": (1, (200.0, 600.0), 880.4765625, 22,
                     {"am-timeout": 2, "am-retry": 2}),
    "oneway": (1, (0.0, 40.0), 80.64414062499999, 16,
               {"am-timeout": 2, "am-retry": 2}),
}


@pytest.mark.parametrize("pin", sorted(RECOVERY_PINS))
def test_two_lost_attempts_recover_on_the_parent_schedule(pin):
    seed, (t_start, t_end), done_at, events, by_kind = RECOVERY_PINS[pin]
    plan = FaultPlan(seed=seed, links=(
        LinkRule.static(loss=1.0, t_start=t_start, t_end=t_end,
                        scope="am"),))
    got = drive(pin.replace("-data", ""), plan,
                ReliabilityConfig(am_timeout_us=30.0))
    # runs == 1 is the ledger: the handler ran exactly once.
    assert got[:4] == (done_at, events, by_kind, 1)


def test_oneway_retry_exhaustion_fails_the_completion_event():
    plan = FaultPlan(seed=1, links=(LinkRule.static(loss=1.0),))
    sim, cluster = make(plan, ReliabilityConfig(max_retries=2))
    done = cluster.transport.am_oneway(cluster.node(0), cluster.node(1), 64)
    sim.run()
    assert done.triggered and not done.ok
    assert isinstance(done.exception, ReliabilityError)
    by_kind = cluster.transport.counters.by_kind
    assert by_kind == {"am-timeout": 3, "am-retry": 2, "oneway-error": 1}
    assert cluster.transport._credit_pool(cluster.node(1))._users == 0


def test_lost_alloc_notification_fails_the_run():
    # Nobody waits on an SVD update notification; a spent retry budget
    # must still end the run in a named error, not a normal result.
    rt = Runtime(RuntimeConfig(
        machine=GM_MARENOSTRUM, nthreads=8,
        fault_plan=FaultPlan(seed=1, links=(LinkRule.static(loss=1.0),)),
        reliability=ReliabilityConfig(max_retries=2)))

    def kernel(th):
        if th.id == 0:
            yield from th.global_alloc(128, blocksize=16, dtype="u4")

    rt.spawn(kernel)
    with pytest.raises(ReliabilityError, match="am oneway 0->1 gave up"):
        rt.run()
