"""Exactness of the pipelined driver's wait: ``BulkEngine._drive``
parks on one reusable ``_Join`` and must keep the schedule of the
driver it replaced — an ``AnyOf`` built on every window refill and an
``AllOf`` at the end, kept here with that ``AnyOf`` as the referee.

Both forms run the same program and are compared on the whole flight
recorder (every record's time, kind, op id and attributes; op ids are
handed out in dispatch order, so a mark pins who ran before whom at an
instant), the ``live_messages`` gauge at every record, the final clock
and ``events_processed`` — equal, not merely close: a wake is one
dispatched event, as the condition event was.

The scripted scenarios drive ``_drive`` itself with message processes
whose every step is a chosen delay, so each isolates one clause of the
condition events' schedule.  Each is run once more with a ``_Join``
broken in that clause, and the outcome must differ: the scenario
really tells the forms apart.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import GM_MARENOSTRUM, Runtime, RuntimeConfig
from repro.faults import FaultPlan, LinkRule, ReliabilityConfig
from repro.faults import ReliabilityError
from repro.obs import EventLog
from repro.runtime import bulk
from repro.runtime.bulk import BulkEngine, _Join, _Message
from repro.sim import Simulator
from repro.sim.event import AllOf

from tests.sim.reference_core import BOTH_CORES


class AnyOf(AllOf):
    """The condition event the driver used to build per refill:
    succeeds with the first child to succeed, fails with the first to
    fail, and fires at construction if a child already has."""

    __slots__ = ()

    def _on_child(self, ev):
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)
            return
        self.succeed((self._events.index(ev), ev._value))


def referee_drive(self, thread, items, local_gen, start, window, op_id):
    """``BulkEngine._drive`` as it was, condition events and all."""
    sim = self.rt.sim
    depth = max(1, self.max_inflight if window is None else window)
    inflight = []
    sent = 0

    def done(_ev):
        self.live_messages -= 1

    for item in items:
        while len(inflight) >= depth:
            yield AnyOf(sim, inflight)
            inflight = [p for p in inflight if not p.triggered]
        if item.__class__ is tuple:
            yield from local_gen(item)
            continue
        sent += 1
        proc = start(item, sent)
        proc.add_callback(done)
        inflight.append(proc)
        self._issue(thread, item, op_id, len(inflight))
    pending = [p for p in inflight if not p.triggered]
    if pending:
        yield AllOf(sim, pending)


class GaugedLog(EventLog):
    """A flight recorder that also notes the bulk gauge at each record."""

    def __init__(self):
        super().__init__()
        self.rt = None
        self.gauge = []

    def emit(self, t, kind, *args, **attrs):
        if self.rt is not None:
            self.gauge.append(self.rt.bulk.live_messages)
        super().emit(t, kind, *args, **attrs)


def outcome(rt, log):
    records = [(e.t, e.kind, e.op, e.thread, e.node, sorted(e.attrs.items()))
               for e in log.events]
    return (records, log.gauge, rt.sim.now, rt.sim.events_processed,
            rt.bulk.live_messages)


# -- the real runtime -------------------------------------------------

def traffic(core, window, dark=False):
    """Eight threads on two GM nodes, every remote block its own wire
    message (the coalescing cap is one block): each thread reads and
    writes multi-message vectored spans whose local segments interleave
    with the remote ones, and one tiny local span after another keeps
    thread 0 busy while its messages land.  With ``dark`` the fabric
    goes dark mid-run and thread 0's pipelined span fails instead."""
    log = GaugedLog()
    plan = None
    if dark:
        plan = FaultPlan(seed=1, links=(
            LinkRule.static(loss=1.0, t_start=300.0),))
    rt = Runtime(RuntimeConfig(
        machine=GM_MARENOSTRUM, nthreads=8, threads_per_node=4, seed=3,
        bulk_max_inflight=window, bulk_max_coalesce_bytes=32,
        fault_plan=plan, reliability=ReliabilityConfig(max_retries=2),
        events=log), sim=core())
    log.rt = rt
    seen = {}

    def kernel(th):
        arr = yield from th.all_alloc(512, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(512, dtype="u4")
        yield from th.barrier()
        if dark:
            if th.id == 0:
                yield 300.0
                yield from th.memget(arr, 32, 160)
            return
        lo = 56 * th.id
        spans = [(lo + 30, 40), ((lo + 200) % 400, 70)]
        spans += [(8 * (th.id // 4 * 4 + k % 4), 1) for k in range(24)]
        spans.append((500 - lo, 12))
        got = yield from th.memget_v(arr, spans)
        seen[th.id] = [vals.tolist() for vals in got]
        yield from th.memput_v(arr, [(lo + 3, np.arange(50) + 1000 * th.id),
                                     (256 + lo // 2, [7] * 30)])
        yield from th.fence()
        yield from th.barrier()
        if th.id == 0:
            seen["final"] = arr.data.tolist()

    rt.spawn(kernel)
    if dark:
        with pytest.raises(ReliabilityError) as failure:
            rt.run()
        return outcome(rt, log), failure.value.args
    rt.run()
    return outcome(rt, log), seen


def compare_traffic(core, window, monkeypatch, dark=False):
    mine = traffic(core, window, dark)
    with monkeypatch.context() as patch:
        patch.setattr(BulkEngine, "_drive", referee_drive)
        theirs = traffic(core, window, dark)
    assert mine == theirs
    return mine


@BOTH_CORES
@pytest.mark.parametrize("window", [1, 2, 8])
def test_multi_message_spans_keep_the_referee_schedule(core, window,
                                                       monkeypatch):
    (*_, gauge), seen = compare_traffic(core, window, monkeypatch)
    assert gauge == 0 and len(seen) == 9


@BOTH_CORES
@pytest.mark.parametrize("window", [1, 2, 8])
def test_a_failed_message_raises_at_the_referee_instant(core, window,
                                                        monkeypatch):
    _, args = compare_traffic(core, window, monkeypatch, dark=True)
    assert args[0].startswith("bulk get t0->n1, message ")
    assert "failed after retries: am get 0->1 gave up" in args[0]
    # The message process's own exception, raised as is: it names the
    # process it failed in.
    assert "'bulk[t0->n1]'" in args[1]


def test_the_traffic_comparison_tells_the_forms_apart(monkeypatch):
    class WakeOnEvery(_Join):
        __slots__ = ()

        def landed(self, msg):
            self.need = min(self.need, 1)
            _Join.landed(self, msg)

    plain = traffic(Simulator, 8)
    monkeypatch.setattr(bulk, "_Join", WakeOnEvery)
    assert traffic(Simulator, 8) != plain


# -- scripted message processes ---------------------------------------

class Boom(RuntimeError):
    pass


def scripted(core, window, plan):
    """Drive ``plan`` through ``_drive`` on a bare runtime: each entry
    is ``("m", delays, fails)`` for a message process that waits out
    ``delays`` in turn and then returns or raises, or ``("l", delays)``
    for a local segment run by the driver itself."""
    log = GaugedLog()
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1, events=log), sim=core())
    log.rt = rt
    sim, engine = rt.sim, rt.bulk
    thread = SimpleNamespace(id=0, node=SimpleNamespace(id=0))
    items, steps = [], {}
    for k, (kind, *step) in enumerate(plan):
        steps[k] = step
        items.append((k, 0, 0, 1) if kind == "l"
                     else _Message(1, [(k, 0, 0, 1)], 8, k))

    def mark(name):
        log.emit(sim.now, "mark", op=log.next_op_id(), name=name)

    def local_gen(seg):
        for delay in steps[seg[0]][0]:
            yield delay
        mark(f"local {seg[0]} done")

    def msg_gen(msg, number):
        delays, fails = steps[msg.arena_lo]
        for delay in delays:
            yield delay
        mark(f"message {number} done")
        if fails:
            raise Boom(f"message {number}")

    def driver():
        try:
            yield from engine._drive(
                thread, items, local_gen,
                lambda msg, number: sim.process(
                    msg_gen(msg, number), name=f"bulk[t0->n{msg.node}]"),
                window, -1)
        except Boom as err:
            mark(f"raised {err.args[0]}")
        else:
            mark("drained")

    sim.process(driver(), name="driver")
    sim.run()
    return outcome(rt, log)


def compare_scripted(core, window, plan, broken, monkeypatch):
    """``plan`` must run as under the referee, and differently with
    ``_Join`` replaced by ``broken``."""
    mine = scripted(core, window, plan)
    with monkeypatch.context() as patch:
        patch.setattr(BulkEngine, "_drive", referee_drive)
        theirs = scripted(core, window, plan)
    assert mine == theirs
    with monkeypatch.context() as patch:
        patch.setattr(bulk, "_Join", broken)
        assert scripted(core, window, plan) != theirs
    return mine


def marks(result):
    """``(time, name)`` of every mark, in record order."""
    return [(t, attrs[0][1]) for t, kind, *_, attrs in result[0]
            if kind == "mark"]


def endings(result):
    """How and when the drive ended: raised, or drained."""
    return [(t, name) for t, name in marks(result)
            if name.startswith("raised") or name == "drained"]


class ArmAlways(_Join):
    """Broken: never looks for a message that completed unwatched."""

    __slots__ = ()

    def park(self, watch, need):
        self.watch, self.need = watch, need
        return self


class WakeOnAny(_Join):
    """Broken: any completion counts while the driver is parked."""

    __slots__ = ()

    def landed(self, msg):
        if self.need:
            self.watch = [msg]
        _Join.landed(self, msg)


class FailLate(_Join):
    """Broken: a failure counts as one completion more."""

    __slots__ = ()

    def landed(self, msg):
        if msg.ok or not self.need or msg not in self.watch:
            _Join.landed(self, msg)
            return
        self.engine.live_messages -= 1
        self.failure = msg.exception
        self.need -= 1
        if not self.need:
            msg.sim._wake(self.token, 0.0)


@BOTH_CORES
@pytest.mark.parametrize("window", [2, 8])
def test_window_refills_with_a_child_that_already_landed(core, window,
                                                         monkeypatch):
    # Message 1 lands while the driver runs a local segment; when the
    # window next fills it still holds that message, so the wait ends
    # at once — through a zero-delay wait, as the condition event fired
    # at construction.
    plan = [("m", [5.0], False), ("l", [10.0])]
    plan += [("m", [20.0 + k], False) for k in range(window)]
    result = compare_scripted(core, window, plan, ArmAlways, monkeypatch)
    assert marks(result)[:2] == [(5.0, "message 1 done"),
                                 (10.0, "local 1 done")]


@BOTH_CORES
def test_the_first_landed_child_in_list_order_decides(core, monkeypatch):
    # Messages 1 and 2 both land during the local segment, 2 first and
    # failing.  The condition looked at 1 first, which succeeded: no
    # failure reaches the driver, and the drive completes.
    plan = [("m", [5.0], False), ("m", [4.0], True), ("l", [10.0]),
            ("m", [20.0], False), ("m", [20.0], False)]
    result = compare_scripted(core, 3, plan, ArmAlways, monkeypatch)
    assert endings(result) == [(30.0, "drained")]


@BOTH_CORES
def test_a_child_that_landed_failed_is_raised_at_once(core, monkeypatch):
    plan = [("m", [5.0], True), ("l", [10.0]), ("m", [20.0], False),
            ("m", [20.0], False)]
    result = compare_scripted(core, 2, plan, ArmAlways, monkeypatch)
    assert endings(result) == [(10.0, "raised message 1")]


@BOTH_CORES
@pytest.mark.parametrize("window", [2, 8])
def test_a_child_triggered_at_the_refill_cannot_wake_the_next_wait(
        core, window, monkeypatch):
    # At t=5 message 1 returns; message 2 returns only after a further
    # zero-delay step, so it is triggered but not yet dispatched when
    # the driver resumes.  It leaves the window then, and its later
    # dispatch must not end the wait the driver parks on next.
    plan = [("m", [5.0], False), ("m", [5.0, 0.0], False)]
    plan += [("m", [10.0 + k], False) for k in range(window)]
    result = compare_scripted(core, window, plan, WakeOnAny, monkeypatch)
    assert marks(result)[:2] == [(5.0, "message 1 done"),
                                 (5.0, "message 2 done")]


@BOTH_CORES
@pytest.mark.parametrize("window", [1, 2, 8])
def test_a_failure_ends_the_wait_at_the_referee_instant(core, window,
                                                        monkeypatch):
    # Message 2 fails first, at t=12.  Windows 1 and 2 meet the failure
    # in a refill wait (of message 1 alone at 1), 8 in the final wait,
    # where a failure must not count as one more completion.
    plan = [("m", [30.0], True), ("m", [12.0], True), ("m", [25.0], False)]
    mine = scripted(core, window, plan)
    with monkeypatch.context() as patch:
        patch.setattr(BulkEngine, "_drive", referee_drive)
        assert scripted(core, window, plan) == mine
    assert endings(mine) == ([(30.0, "raised message 1")] if window == 1
                            else [(12.0, "raised message 2")])
    if window == 8:
        with monkeypatch.context() as patch:
            patch.setattr(bulk, "_Join", FailLate)
            assert scripted(core, window, plan) != mine
