"""Exactness of the inline one-message span: ``BulkEngine._transfer``
issues a plan that is one wire message in the caller's own frame, and
must leave the schedule of the pipeline it replaces — a detached
message ``Process`` joined by an ``AllOf``, kept here as the reference
driver — with only the skipped zero-delay events missing from
``events_processed``.

The comparison is the whole flight recorder: every record's time, kind,
op id and attributes.  Op ids are handed out in dispatch order, so a
mark that draws one pins who ran before whom at an instant.  Each
hand-built scenario isolates one clause of ``Simulator.quiescent()``
and is run a third time with ``quiescent()`` forced to True inside
``_transfer`` to show that the scenario really does tell the forms
apart.
"""

import sys

import numpy as np
import pytest

from repro import GM_MARENOSTRUM, Runtime, RuntimeConfig
from repro.faults.reliability import ReliabilityError
from repro.obs import EventLog
from repro.obs.events import BULK_DRAIN, BULK_PLAN
from repro.runtime.bulk import BulkEngine, _Message
from repro.sim import Simulator
from repro.sim.event import AllOf

from tests.sim.drive import timer
from tests.sim.reference_core import BOTH_CORES

BOTH_OPS = pytest.mark.parametrize("op", ["get", "put"])

#: Long after the opening barrier, and nothing else happens then.
ALONE, TOGETHER, RELEASE = 250.0, 500.0, 750.0


def pipelined(self, thread, array, spans, values, window, single=False):
    """``BulkEngine._transfer`` before the inline path: a one-message
    plan runs as a detached message process joined by an ``AllOf``;
    any other goes through ``_drive`` as in the product."""
    rt, ops, sim = self.rt, self.rt.ops, self.rt.sim
    kind = "get" if values is None else "put"
    op_id = -1
    if self.enabled:
        rt.metrics.bulk_transfers += 1
        op_id = thread._span_begin("bulk_" + kind, spans=len(spans))
    items = self._plan(thread, array, spans)
    if op_id >= 0:
        wire = [len(it.segments) for it in items
                if it.__class__ is _Message]
        rt.events.emit(sim.now, BULK_PLAN, op=op_id, thread=thread.id,
                       node=thread.node.id, messages=len(wire),
                       wire_segments=sum(wire),
                       coalesced=sum(wire) - len(wire),
                       local=len(items) - len(wire))
    bufs = values if values is not None else [
        np.empty(nelems, dtype=array.dtype) for _, nelems in spans]

    def local_gen(seg):
        span, offset, start, count = seg
        view = bufs[span][offset:offset + count]
        if values is None:
            view[:] = yield from ops.get(thread, array, start, count)
        else:
            yield from ops.put(thread, array, start, view, count)

    def msg_gen(msg, number):
        try:
            if values is None:
                yield from ops.get(thread, array, 0, bulk=(
                    msg.node, msg.arena_lo, msg.segments, msg.nbytes,
                    op_id))
                data = array.data   # into the caller's buffers, now
                for span, offset, start, count in msg.segments:
                    bufs[span][offset:offset + count] = \
                        data[start:start + count]
            else:
                yield from ops.bulk_put(
                    thread, array, msg.node, msg.arena_lo,
                    [(start, bufs[span][offset:offset + count])
                     for span, offset, start, count in msg.segments],
                    msg.nbytes, parent_op=op_id)
        except ReliabilityError as err:
            total = sum(it.__class__ is _Message for it in items)
            err.args = (f"bulk {kind} t{thread.id}->n{msg.node}, "
                        f"message {number} of {total}, failed after "
                        f"retries: {err.args[0]}", *err.args[1:])
            raise

    if len(items) == 1 and items[0].__class__ is _Message:
        msg = items[0]
        proc = sim.process(msg_gen(msg, 1),
                           name=f"bulk[t{thread.id}->n{msg.node}]")

        def done(_ev):
            self.live_messages -= 1

        proc.add_callback(done)
        self._issue(thread, msg, op_id, 1)
        yield AllOf(sim, [proc])
    else:
        yield from self._drive(
            thread, items, local_gen,
            lambda msg, number: sim.process(
                msg_gen(msg, number),
                name=f"bulk[t{thread.id}->n{msg.node}]"),
            window, op_id)
    if op_id >= 0:
        rt.events.emit(sim.now, BULK_DRAIN, op=op_id, thread=thread.id,
                       node=thread.node.id)
        thread._span_end(op_id, proto="bulk", nbytes=sum(
            n for _, n in spans) * array.elem_size)
    if values is not None:
        return None
    return bufs[0] if single else bufs


class Harness:
    """A 2-node runtime whose thread 0 issues one one-message span
    (elements 32..39 live on node 1), plus what scenarios share."""

    def __init__(self, core, op, done_at=None):
        self.log = EventLog()
        self.rt = Runtime(
            RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=4,
                          threads_per_node=2, events=self.log),
            sim=core())
        self.sim = self.rt.sim
        self.op = op
        # Made before anything runs: same instant, creation order.
        #: Fires when the span completed in a probe run (scenario b).
        self.at_done = done_at and timer(self.sim, done_at)
        self.alone = timer(self.sim, ALONE)
        self.wake = [timer(self.sim, TOGETHER) for _ in range(2)]
        self.gate = self.sim.event()
        self.gate.succeed(delay=RELEASE)

    def mark(self, who):
        self.log.emit(self.sim.now, "mark", op=self.log.next_op_id(),
                      name=who)

    def span(self, th, arr):
        if self.op == "get":
            got = yield from th.memget(arr, 32, 8)
            assert got.tolist() == list(range(32, 40))
        else:
            yield from th.memput(arr, 32, np.arange(8) + 100)
        self.mark("span done")

    def play(self, scenario):
        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=16, dtype="u8")
            if th.id == 0:
                arr.data[:] = np.arange(64)
            yield from th.barrier()
            assert self.sim.now < ALONE
            yield from scenario(self, th, arr)
            yield from th.barrier()

        self.rt.spawn(kernel)
        self.rt.run()
        return self

    def outcome(self):
        """Everything but the event count must be equal."""
        records = [(e.t, e.kind, e.op, e.thread, e.node,
                    sorted(e.attrs.items())) for e in self.log.events]
        return (records, self.sim.now, self.rt.bulk.live_messages,
                self.rt.metrics.summary())

    def when(self, who):
        return next(e.t for e in self.log.events
                    if e.kind == "mark" and e.attrs["name"] == who)


def compare(scenario, core, op, monkeypatch, skipped, sensitive=True):
    """Run ``scenario`` pipelined and inline; they must agree, the
    inline run ``skipped`` events shorter — given as (GET, PUT): a PUT
    never completes at a quiescent instant (its remote application is
    queued by then), so only its start can be skipped.  With
    ``quiescent()`` forced to True inside ``_transfer`` the runs must
    not agree (``sensitive``)."""
    skipped = skipped[op == "put"]
    done_at = Harness(core, op).play(scenario).when("span done")
    inline = Harness(core, op, done_at).play(scenario)
    with monkeypatch.context() as patch:
        patch.setattr(BulkEngine, "_transfer", pipelined)
        plain = Harness(core, op, done_at).play(scenario)
    assert inline.outcome() == plain.outcome()
    assert inline.rt.bulk.live_messages == 0
    assert (plain.sim.events_processed
            - inline.sim.events_processed) == skipped
    if sensitive:
        real = Simulator.quiescent
        monkeypatch.setattr(
            Simulator, "quiescent", lambda self: (
                sys._getframe(1).f_code.co_name == "_transfer"
                or real(self)))
        wrong = Harness(core, op, done_at).play(scenario)
        assert wrong.outcome() != plain.outcome()
    return inline


def names(h):
    return [e.attrs["name"] for e in h.log.events if e.kind == "mark"]


@BOTH_CORES
@BOTH_OPS
def test_lone_span_skips_all_three_events(core, op, monkeypatch):
    def scenario(h, th, arr):
        if th.id == 0:
            yield h.alone
            yield from h.span(th, arr)

    compare(scenario, core, op, monkeypatch, skipped=(3, 1), sensitive=False)


@BOTH_CORES
@BOTH_OPS
def test_zero_delay_event_queued_at_issue(core, op, monkeypatch):
    # (a) The caller spawned a child just before: its start event is
    # queued for this instant, ahead of the message's.
    def scenario(h, th, arr):
        def child():
            h.mark("child started")
            yield 1.0

        if th.id == 0:
            yield h.alone
            h.sim.process(child())
            yield from h.span(th, arr)

    inline = compare(scenario, core, op, monkeypatch, skipped=(2, 0))
    assert names(inline) == ["child started", "span done"]


@BOTH_CORES
@BOTH_OPS
def test_waker_queued_at_completion(core, op, monkeypatch):
    # (b) At the instant the message completes, thread 1 — woken just
    # before it — has spawned a child: the child's start is queued ahead
    # of the completion, hence ahead of the caller's resumption.
    def scenario(h, th, arr):
        def child():
            h.mark("child started")
            yield 1.0

        if th.id == 0:
            yield h.alone
            yield from h.span(th, arr)
        elif th.id == 1 and h.at_done:
            yield h.at_done
            h.sim.process(child())

    inline = compare(scenario, core, op, monkeypatch, skipped=(1, 1))
    assert names(inline) == ["child started", "span done"]
    assert inline.when("child started") == inline.when("span done")


@BOTH_CORES
@BOTH_OPS
def test_span_issued_from_a_fan_out_subscriber(core, op, monkeypatch):
    # (c) One event releases threads 0 and 1; nothing else is queued,
    # but thread 1 still runs at this instant right after 0 yields.
    def scenario(h, th, arr):
        if th.id == 0:
            yield h.gate
            yield from h.span(th, arr)
        elif th.id == 1:
            yield h.gate
            h.mark("t1 released")

    inline = compare(scenario, core, op, monkeypatch, skipped=(2, 0))
    assert names(inline) == ["t1 released", "span done"]


@BOTH_CORES
@BOTH_OPS
def test_heap_entry_at_now_goes_first(core, op, monkeypatch):
    # (d) No contention at all: thread 1 merely wakes at the instant
    # thread 0 issues.  Its heap entry carries the smaller sequence
    # number than the message's start would.
    def scenario(h, th, arr):
        if th.id == 0:
            yield h.wake[0]
            yield from h.span(th, arr)
        elif th.id == 1:
            yield h.wake[1]
            h.mark("t1 woke")

    inline = compare(scenario, core, op, monkeypatch, skipped=(2, 0))
    assert names(inline) == ["t1 woke", "span done"]


def test_kv_mix_records_are_those_of_the_pipelined_driver(monkeypatch):
    # One traced run of the workload the saving is claimed on:
    # byte-identical flight-recorder records, fewer events.  1/500 of
    # the benchmark's size (128 ops) is the smallest at which the run
    # plans all three kinds: one message (inline), several items with
    # a message (pipelined), and local segments only.
    from bench.workloads import WORKLOADS

    kv = WORKLOADS["kv_mix"]
    inputs = kv.generate(7, 0.002)
    kinds = set()
    plan = BulkEngine._plan

    def recording_plan(self, thread, array, spans):
        items = plan(self, thread, array, spans)
        messages = sum(it.__class__ is not tuple for it in items)
        kinds.add("inline" if len(items) == messages == 1 else
                  "pipelined" if messages else "local")
        return items

    monkeypatch.setattr(BulkEngine, "_plan", recording_plan)

    def traced():
        log = EventLog()
        out = kv.run(inputs, events=log, traced=True)
        records = [repr((e.t, e.kind, e.op, e.thread, e.node,
                         sorted(e.attrs.items()))) for e in log.events]
        return records, out.exact()

    inline_records, inline = traced()
    assert kinds == {"inline", "pipelined", "local"}
    monkeypatch.setattr(BulkEngine, "_transfer", pipelined)
    plain_records, plain = traced()
    assert inline_records == plain_records
    assert inline.pop("sim.core.events") < plain.pop("sim.core.events")
    assert inline == plain and not inline["failed"]
