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
from repro.runtime.metrics import RuntimeMetrics
from repro.sim import Simulator

from tests.sim.drive import finish
from tests.sim.grant_log import GrantLog


def make(plan=None, reliability=None, nnodes=4, events=None):
    if events is None:      # a bare cluster's recorder: there, but off
        events = EventLog(enabled=False)
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, nnodes)
    for node in cluster.nodes:
        node.progress.enter_runtime()
        node.progress.events = events
    tp = cluster.transport
    tp.events = events
    tp.metrics = RuntimeMetrics()
    if reliability is not None:
        tp.reliability = reliability
    if plan is not None:
        tp.faults = FaultInjector(plan, sim, tp.metrics, events=events)
    return sim, cluster


def tally(cluster):
    """``(timeouts, retries, ledger replays)``: the transport's
    recovery work, read off the metrics block and the dedup ledger."""
    tp = cluster.transport
    return tp.metrics.timeouts, tp.metrics.retries, tp.ledger.hits


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

    reply = finish(sim, bench())
    assert reply == {"base": 0xBEEF}
    assert box["runs"] == 1                       # handler ran once
    timeouts, retries, _ = tally(cluster)
    assert timeouts >= 1 and retries >= 1


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
        finish(sim, bench())


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

    reply = finish(sim, bench())
    assert reply == {"base": 0xBEEF}
    assert dst.credits._users == 0


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

    reply = finish(sim, bench())
    sim.run()                                     # drain the dup flight
    assert reply == {"base": 0xBEEF}
    assert box["runs"] == 1                       # idempotent: one run
    assert tally(cluster) == (0, 0, 1)            # the dup hit the ledger


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

    reply = finish(sim, bench())
    assert reply == "first"
    assert tally(cluster)[2] >= 1


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

    ok, elapsed = finish(sim, bench())
    assert ok is False
    assert elapsed >= rel.rdma_timeout_us
    assert tally(cluster) == (1, 0, 0)


def test_rdma_put_drop_returns_none():
    plan = FaultPlan(seed=7, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    sim, cluster = make(plan, ReliabilityConfig(rdma_timeout_us=40.0))
    src, dst = cluster.node(0), cluster.node(1)

    def bench():
        applied = yield from cluster.transport.rdma_put(src, dst, 64)
        return applied

    assert finish(sim, bench()) is None


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
        return finish(sim, run())

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
        applied = yield from cluster.transport.default_put(
            cluster.node(0), cluster.node(1), nbytes,
            counting_handler(box), op_id=7)
        yield applied
    return drive


def _oneway(cluster, box):
    yield cluster.transport.am_oneway(
        cluster.node(0), cluster.node(1), 64, counting_handler(box))


PROTOCOLS = {"eager-get": _get(8), "rdv-get": _get(RDV),
             "eager-put": _put(8), "rdv-put": _put(RDV),
             "oneway": _oneway}


def drive(protocol, plan=None, reliability=None, recorded=False):
    """Run one op of ``protocol`` to completion, then drain detached
    flights.  Returns (completion time, events processed, recovery
    tally, handler runs, recorder stream)."""
    log = EventLog() if recorded else None
    sim, cluster = make(plan, reliability, events=log)
    box = {}

    def main():
        yield from PROTOCOLS[protocol](cluster, box)
        return sim.now

    done_at = finish(sim, main())
    sim.run()
    stream = [(e.t, e.kind, e.op, e.node) for e in log] if recorded else None
    return (done_at, sim.events_processed, tally(cluster),
            box.get("runs", 0), stream)


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
    _done_at, _events, work, runs, stream = bare
    assert work == (0, 0, 0) and runs == 1
    assert stream if recorded else stream is None


#: protocol -> (plan seed, loss window, completion time, simulator
#: events, (timeouts, retries, ledger replays)).  The window swallows exactly the first two
#: attempts (of the RTS/CTS handshake for "rdv-put", of the detached
#: data leg for "rdv-put-data"); every literal was
#: generated at the parent of PR 22 (four hand-written retransmit
#: loops), so the single loop is held to each old loop's schedule —
#: including the re-injection the PUT data leg pays after backoff and
#: the per-attempt re-injection of the one-way path.  The event counts
#: of the four PUT and one-way pins are one lower since a detached
#: process (the put tail, the one-way flight) schedules no completion
#: event that nothing waited for; every time is unchanged.
RECOVERY_PINS = {
    "eager-get": (1, (0.0, 40.0), 86.59509277343749, 24, (2, 2, 1)),
    "rdv-get": (2, (0.0, 40.0), 586.8986328125002, 22, (2, 2, 1)),
    "eager-put": (1, (0.0, 40.0), 81.83923339843749, 15, (2, 2, 0)),
    "rdv-put": (2, (0.0, 80.0), 354.28828125, 25, (2, 2, 1)),
    "rdv-put-data": (1, (200.0, 600.0), 880.4765625, 21, (2, 2, 0)),
    "oneway": (1, (0.0, 40.0), 80.64414062499999, 15, (2, 2, 0)),
}


@pytest.mark.parametrize("pin", sorted(RECOVERY_PINS))
def test_two_lost_attempts_recover_on_the_parent_schedule(pin):
    seed, (t_start, t_end), done_at, events, work = RECOVERY_PINS[pin]
    plan = FaultPlan(seed=seed, links=(
        LinkRule.static(loss=1.0, t_start=t_start, t_end=t_end,
                        scope="am"),))
    got = drive(pin.replace("-data", ""), plan,
                ReliabilityConfig(am_timeout_us=30.0))
    # runs == 1 is the ledger: the handler ran exactly once.
    assert got[:4] == (done_at, events, work, 1)


#: protocol -> (completion time, simulator events, (timeouts, retries,
#: ledger replays), the target's progress-engine services and
#: handler-CPU grants) when every AM message is delivered twice.
#: Generated at 7f9419a, where each protocol spawned its own duplicate;
#: "rdv-put" is re-pinned for the one change since: the duplicate of
#: its NIC-delivered data leg no longer occupies the target's progress
#: engine and handler CPU (26 events, 3 services and 3 grants there).
#: Every event count is then lowered by one per detached process that
#: ended (each duplicate delivery, put tail and one-way flight): such a
#: process schedules no completion event that nothing waited for.
DUPLICATE_PINS = {
    "eager-get": (16.0950927734375, 15, (0, 0, 1), 2, 2),
    "rdv-get": (297.04931640625, 15, (0, 0, 1), 2, 2),
    "eager-put": (8.6899169921875, 13, (0, 0, 1), 2, 2),
    "rdv-put": (297.78828125, 21, (0, 0, 1), 2, 2),
    "oneway": (8.644140625, 13, (0, 0, 1), 2, 2),
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_duplicate_lands_once_on_every_am_protocol(protocol):
    plan = FaultPlan(seed=3, links=(
        LinkRule.static(duplicate=1.0, scope="am"),))
    sim, cluster = make(plan)
    dst = cluster.node(1)
    dst.handler_cpu = GrantLog.like(dst.handler_cpu)
    box = {}

    def main():
        yield from PROTOCOLS[protocol](cluster, box)
        return sim.now

    done_at = finish(sim, main())
    sim.run()                                     # drain the dup flights
    assert box["runs"] == 1                       # the ledger absorbed it
    assert (done_at, sim.events_processed, tally(cluster),
            dst.progress.serviced, dst.handler_cpu.acquisitions) \
        == DUPLICATE_PINS[protocol]


def test_oneway_retry_exhaustion_fails_the_completion_event():
    plan = FaultPlan(seed=1, links=(LinkRule.static(loss=1.0),))
    sim, cluster = make(plan, ReliabilityConfig(max_retries=2))
    done = cluster.transport.am_oneway(cluster.node(0), cluster.node(1), 64)
    sim.run()
    assert done.triggered and not done.ok
    assert isinstance(done.exception, ReliabilityError)
    assert tally(cluster) == (3, 2, 0)
    assert cluster.node(1).credits._users == 0


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


def _lost_put_run(fence):
    """Thread 0 issues one AM put into a fabric that drops every AM
    message, then computes long past the tail's retry budget (the
    data leg gives up at t ≈ 240 µs) before fencing (or returning)."""
    rt = Runtime(RuntimeConfig(
        machine=GM_MARENOSTRUM, nthreads=2, threads_per_node=1,
        fault_plan=FaultPlan(seed=1, links=(
            LinkRule.static(loss=1.0, scope="am"),)),
        reliability=ReliabilityConfig(max_retries=2)))
    box = {}

    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.put(arr, 8, 7)
            yield from th.compute(5000.0)
            if fence:
                yield from th.fence()
            box["passed"] = True

    rt.spawn(kernel)
    return rt, box


def test_a_put_that_failed_before_the_fence_raises_at_the_fence():
    # The fence used to wait only on puts still in flight, so one the
    # fabric had already given up on slipped past it (and the run
    # ended normally with the store silently missing).
    rt, box = _lost_put_run(fence=True)
    with pytest.raises(ReliabilityError, match="put data 0->1 gave up"):
        rt.run()
    assert "passed" not in box
    assert rt.sim.now == pytest.approx(5046.463214111328)


def test_a_put_that_failed_after_the_last_fence_fails_the_run():
    # No fence after the put: the end of the program reports it, as
    # for a lost SVD notification.
    rt, box = _lost_put_run(fence=False)
    with pytest.raises(ReliabilityError, match="put data 0->1 gave up"):
        rt.run()
    assert box == {"passed": True}


def test_a_crashing_put_handler_fails_the_put():
    # An eager PUT's handler runs in the detached tail.  One that raised
    # used to *succeed* the applied event: the store landed and the
    # fence passed as if nothing had happened.
    sim, cluster = make()

    def handler(node):
        raise ZeroDivisionError("handler bug")

    def run():
        applied = yield from cluster.transport.default_put(
            cluster.node(0), cluster.node(1), 8, handler)
        yield applied

    with pytest.raises(ZeroDivisionError, match="handler bug"):
        finish(sim, run())
    assert cluster.node(1).credits._users == 0


def test_a_crashing_oneway_handler_fails_the_completion_event():
    # Same rule for a notification: a handler that raises fails the
    # event (Runtime.run() raises it), it does not complete normally.
    sim, cluster = make()

    def handler(node):
        raise ZeroDivisionError("handler bug")

    done = cluster.transport.am_oneway(cluster.node(0), cluster.node(1),
                                       64, handler)
    sim.run()
    assert isinstance(done.exception, ZeroDivisionError)
    assert cluster.node(1).credits._users == 0
