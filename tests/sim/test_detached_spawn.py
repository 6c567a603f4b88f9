"""A process nobody joins ends without an event: ``Simulator.spawn``.

The transport's fire-and-forget continuations (a put's remote tail, an
injected duplicate delivery, a one-way flight) and the ack-piggyback
insert are such processes.  Their completion event had no subscriber,
so scheduling it only cost a dispatch; its outcome is still recorded on
the process, and a tail that fails still fails the event it signals.
"""

import gc

from repro.faults import (FaultInjector, FaultPlan, LinkRule,
                          ReliabilityConfig, ReliabilityError)
from repro.network import Cluster, GM_MARENOSTRUM
from repro.obs import EventLog
from repro.runtime.metrics import RuntimeMetrics
from repro.sim.event import PROCESSED

from tests.sim.reference_core import BOTH_CORES


def ticks(n):
    for _ in range(n):
        yield 1.0
    return "done"


@BOTH_CORES
def test_a_detached_end_schedules_nothing(core):
    # Joined or not, the generator runs the same four steps (its start
    # and three timed waits); only the kept process then schedules its
    # completion, one more event to dispatch.
    kept, loose = core(), core()
    proc, spawned = kept.process(ticks(3)), loose.spawn(ticks(3))
    kept.run()
    loose.run()
    assert spawned._status == PROCESSED and spawned._value == "done"
    assert proc.value == "done"
    assert (kept.events_processed, loose.events_processed) == (5, 4)
    assert kept.now == loose.now == 3.0


@BOTH_CORES
def test_a_detached_failure_stays_with_its_process(core):
    def boom():
        yield 2.0
        raise RuntimeError("tail broke")

    sim = core()
    proc = sim.spawn(boom(), name="tail")
    sim.run()                   # nothing joined it: the run goes on
    assert sim.events_processed == 2 and sim.pending == 0
    assert proc._status == PROCESSED
    assert proc._exc.args[0] == "tail broke"
    assert "[in sim process 'tail' at t=2.000]" in proc._exc.args[1]


@BOTH_CORES
def test_detached_processes_leave_no_cyclic_garbage(core):
    gc.collect()
    gc.disable()
    try:
        sim = core()
        for n in range(4):
            sim.spawn(ticks(n))
        sim.run()
        assert sim.events_processed == 4 + 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def lossy_cluster(core):
    events = EventLog(enabled=False)
    sim = core()
    cluster = Cluster(sim, GM_MARENOSTRUM, 2)
    for node in cluster.nodes:
        node.progress.enter_runtime()
        node.progress.events = events
    tp = cluster.transport
    tp.events, tp.metrics = events, RuntimeMetrics()
    tp.reliability = ReliabilityConfig(am_timeout_us=20.0, max_retries=2)
    tp.faults = FaultInjector(FaultPlan(seed=1, links=(
        LinkRule.static(loss=1.0, scope="am"),)), sim, tp.metrics,
        events=events)
    return sim, cluster


@BOTH_CORES
def test_a_failed_put_tail_still_fails_its_applied_event(core):
    # An eager put is locally complete at injection; its detached tail
    # retransmits the data until the budget is spent, then fails the
    # event that fences wait on.
    sim, cluster = lossy_cluster(core)
    box = {}

    def put():
        box["applied"] = yield from cluster.transport.default_put(
            cluster.node(0), cluster.node(1), 64)

    sim.process(put())
    sim.run()
    applied = box["applied"]
    assert applied._status == PROCESSED
    assert isinstance(applied._exc, ReliabilityError)
    assert "put data 0->1 gave up" in applied._exc.args[0]
    assert cluster.node(1).credits._users == 0
