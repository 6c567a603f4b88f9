"""The sharded PDES core: N event loops + conservative sync.

:class:`ShardedSimulator` is the entry point: the cluster's nodes are
partitioned into ``N`` contiguous groups
(:mod:`repro.network.partition`), each group simulated by its own
:class:`~repro.sim.simulator.Simulator` advancing under the
barrier-window protocol of :mod:`repro.sim.sync`.  Two backends run
the *identical* worker/coordinator code:

``mode="mp"``
    one OS process per shard (``multiprocessing``).  The *lead* worker
    simulates shard 0 and runs the coordinator; each peer worker talks
    to it over one :class:`~repro.network.shard_channel.PipeChannel`
    (one pipe hop per round), and the calling process only forks,
    waits for the lead's single result message and reaps — the
    throughput configuration on multi-core hosts;
``mode="inproc"``
    shards run round-robin in the calling interpreter — zero process
    overhead, trivially debuggable, and the cross-check that virtual
    time is independent of the transport.

A *shard program* is a picklable builder ``builder(ctx, **params)``
that populates a :class:`ShardContext` with simulated processes.  The
context is the only doorway to other shards: ``ctx.send`` stamps every
cross-shard message with ``send time + wire latency`` and *validates*
the latency against the lookahead matrix, so conservative horizons are
enforced, not assumed.  Full-runtime workloads (whose protocol
generators span initiator and target node state) still run on the
single :class:`Simulator` — that core remains the determinism referee; the
sharded core hosts workloads written against message-passing shard
boundaries.

Determinism contract: for a fixed shard count, results are bit
identical between backends and across runs (delivery order is the
total ``(arrival, src, seq)`` order; grains execute in shard order in
inproc mode and are order-independent in mp mode because shards only
interact at round boundaries).  Across *different* shard counts, a
workload sees identical virtual-time behaviour provided its same-time
cross-shard effects commute (the discipline all bundled workloads and
the test-side fuzz-corpus skeleton, ``tests/sim/shard_referees.py``,
follow); the determinism suite asserts this for shards ∈ {1, 2, 4}.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.shard_channel import ChannelClosed, PipeChannel
from repro.obs.events import (BARRIER_ARRIVE, BARRIER_RELEASE, EventLog,
                              SYNC_ROUND, XSHARD_RECV, XSHARD_SEND)
from repro.obs.shardlog import pack_events
from repro.sim.errors import SimulationError
from repro.sim.event import Event
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.sync import (INF, BarrierPost, GrainPlan, ShardMetrics,
                            ShardReport, SyncCoordinator, SyncError,
                            WireMessage, normalize_lookahead)

#: Slack when validating send latencies against the lookahead matrix
#: (floats only; latencies are exact sums of µs-scale model constants).
_LAT_EPS = 1e-9


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to instantiate its shard."""

    shard_id: int
    nshards: int
    lookahead: Tuple[Tuple[float, ...], ...]
    #: Flight recorder on/off for this shard's worker.  Off (the
    #: default) costs one branch per instrumentation site and keeps the
    #: run bit-identical to a build without the recorder.
    trace: bool = False
    #: Memory bound for the per-shard log (drop-newest).
    trace_max_events: Optional[int] = None


@dataclass
class ShardOutput:
    """What a worker hands back after the final drain."""

    shard: int
    outputs: Dict[str, Any]
    metrics: ShardMetrics
    events: int
    now: float
    #: Packed flight-recorder events (plain tuples; empty when tracing
    #: is off) — merged by :mod:`repro.obs.shardlog`.
    trace: List[tuple] = field(default_factory=list)
    trace_dropped: int = 0


@dataclass
class ShardedRun:
    """Aggregate result of :meth:`ShardedSimulator.run`."""

    nshards: int
    mode: str
    #: Per-shard ``ctx.publish`` dictionaries, indexed by shard.
    outputs: List[Dict[str, Any]]
    metrics: List[ShardMetrics]
    #: Total events across shards.
    events: int
    #: Final virtual clock (max over shards).
    now: float
    rounds: int
    msgs_routed: int
    wall_s: float
    #: Per-shard packed flight-recorder batches (``trace=True`` runs
    #: only; empty lists otherwise).  Merge with
    #: :func:`repro.obs.shardlog.merge_shard_events`.
    shard_events: List[List[tuple]] = field(default_factory=list)
    trace_dropped: int = 0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


class _Delivery:
    """What the heap carries for a message arriving at its handler: no
    process waits on a delivery, so it needs no event — the dispatch
    loop's ``_process()`` call runs the handler on the payload."""

    __slots__ = ("handler", "payload")

    def __init__(self, handler: Callable[[Any], None], payload: Any) -> None:
        self.handler = handler
        self.payload = payload

    def _process(self) -> None:
        self.handler(self.payload)


class ShardContext:
    """A shard program's handle on its local core and its neighbours."""

    def __init__(self, spec: ShardSpec) -> None:
        self.shard = spec.shard_id
        self.nshards = spec.nshards
        self.sim = Simulator()
        self.metrics = ShardMetrics(shard=spec.shard_id)
        #: Per-shard flight recorder.  Disabled unless the spec asked
        #: for tracing; emits are pure list appends (never simulator
        #: events), so tracing leaves virtual time bit-identical.
        self.log = EventLog(enabled=spec.trace,
                            max_events=spec.trace_max_events)
        self.outputs: Dict[str, Any] = {}
        self._lookahead_row = spec.lookahead[spec.shard_id]
        self._outbox: List[WireMessage] = []
        self._posts: List[BarrierPost] = []
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        self._seq = 0
        self._barrier_gates: Dict[str, Event] = {}
        self._procs: List[Process] = []
        self._finishers: List[Callable[[], None]] = []

    # -- building -----------------------------------------------------

    def set_nodes(self, lo: int, hi: int) -> None:
        """Record the ``[lo, hi)`` node range this shard simulates
        (metrics/reporting only — the context does not interpret node
        numbers)."""
        self.metrics.node_lo = lo
        self.metrics.node_hi = hi

    def spawn(self, gen, name: str = "") -> Process:
        """Spawn a tracked simulated process.  Tracked processes are
        checked at shutdown: one still alive after global termination
        means the workload deadlocked (e.g. waiting on a reply that
        never came), which is reported instead of silently dropped."""
        proc = self.sim.process(gen, name=name)
        self._procs.append(proc)
        return proc

    def on_message(self, kind: str,
                   handler: Callable[[Any], None]) -> None:
        """Register ``handler(payload)`` for incoming ``kind``
        messages; it runs at the message's arrival time."""
        if kind in self._handlers:
            raise SimulationError(f"duplicate handler for {kind!r}")
        self._handlers[kind] = handler

    def publish(self, key: str, value: Any) -> None:
        """Export a (picklable) result; lands in ``ShardedRun.outputs``."""
        self.outputs[key] = value

    def at_finish(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once after global termination, before the
        published outputs are collected — where a shard program
        finalises what it published (e.g. folds a partial batch)."""
        self._finishers.append(fn)

    # -- messaging ----------------------------------------------------

    def send(self, dst: int, kind: str, payload: Any = None, *,
             latency: float, nbytes: int = 0) -> None:
        """Send a message arriving at ``now + latency``.

        ``latency`` models the one-way wire time and must be at least
        the lookahead toward ``dst`` — that bound is what lets the
        destination shard run ahead safely, so violating it is an
        error, not a slowdown.  Same-shard destinations take the same
        schedule-at-arrival path (no shortcut), keeping a workload's
        event pattern invariant under re-partitioning.
        """
        if latency < 0:
            raise SimulationError(f"negative send latency {latency}")
        arrival = self.sim.now + latency
        if dst == self.shard:
            self._schedule_delivery(kind, payload, arrival)
            return
        if not 0 <= dst < self.nshards:
            raise SimulationError(
                f"send to unknown shard {dst} (nshards={self.nshards})")
        la = self._lookahead_row[dst]
        if latency + _LAT_EPS < la:
            raise SyncError(
                f"shard {self.shard}->{dst}: latency {latency:.6f} µs "
                f"below lookahead {la:.6f} µs — the partition promised "
                "no faster path exists; fix the lookahead matrix or the "
                "workload's latency model")
        self._seq += 1
        self._outbox.append((arrival, self.shard, self._seq, dst, kind,
                             nbytes, payload))
        self.metrics.msgs_sent += 1
        if self.log.enabled:
            self.log.emit(self.sim.now, XSHARD_SEND, src=self.shard,
                          seq=self._seq, dst=dst, msg=kind,
                          arrival=arrival, nbytes=nbytes)

    def _schedule_delivery(self, kind: str, payload: Any,
                           arrival: float) -> None:
        handler = self._handlers.get(kind)
        if handler is None:
            raise SimulationError(
                f"shard {self.shard}: no handler for message {kind!r}")
        delay = arrival - self.sim.now
        if delay < 0:
            raise SyncError(
                f"shard {self.shard}: {kind!r} arrival {arrival:.6f} is "
                f"in the past (now={self.sim.now:.6f}) — conservative "
                "horizon violated")
        self.sim._schedule(_Delivery(handler, payload), delay)

    # -- collectives --------------------------------------------------

    def barrier_arrive(self, name: str, expected: int, cost: float,
                       count: int = 1) -> Event:
        """Arrive at global collective ``name`` and get the gate event
        that fires at the coordinated release time (``max`` arrival
        across all shards ``+ cost`` — the pooled core's counter
        barrier semantics).  ``expected`` counts participants across
        the whole run; names are one-shot (use a generation suffix for
        repeated barriers)."""
        gate = self._barrier_gates.get(name)
        if gate is None:
            gate = self.sim.event(name=f"shardbar:{name}")
            self._barrier_gates[name] = gate
        self._posts.append(BarrierPost(
            name=name, count=count, t_last=self.sim.now,
            expected=expected, cost=cost))
        if self.log.enabled:
            self.log.emit(self.sim.now, BARRIER_ARRIVE, name=name,
                          expected=expected, count=count)
        return gate

    def _apply_release(self, name: str, t_rel: float) -> None:
        gate = self._barrier_gates.pop(name, None)
        if gate is None:
            # No local participants — releases are broadcast.
            return
        delay = t_rel - self.sim.now
        if delay < 0:
            raise SyncError(
                f"shard {self.shard}: release of {name!r} at "
                f"{t_rel:.6f} is in the past (now={self.sim.now:.6f})")
        gate.succeed(value=t_rel, delay=delay)
        if self.log.enabled:
            self.log.emit(t_rel, BARRIER_RELEASE, name=name)

    # -- worker internals ---------------------------------------------

    def _take_outbox(self) -> List[WireMessage]:
        out, self._outbox = self._outbox, []
        return out

    def _take_posts(self) -> List[BarrierPost]:
        posts, self._posts = self._posts, []
        return posts

    def _check_quiescent(self) -> None:
        for proc in self._procs:
            # A crashed process is "triggered", not alive: without this
            # it would pass as finished and the run would end short.
            # (Process._exit already put its name into the args.)
            if proc.exception is not None:
                raise proc.exception
        stuck = [p.name for p in self._procs if p.is_alive]
        if stuck:
            preview = ", ".join(stuck[:5])
            raise SimulationError(
                f"shard {self.shard}: {len(stuck)} process(es) still "
                f"blocked after global termination ({preview}...) — "
                "the workload deadlocked across shards")


class ShardWorkerState:
    """Grain executor — the same object drives both backends."""

    def __init__(self, spec: ShardSpec, builder: Callable,
                 params: Dict[str, Any]) -> None:
        self.ctx = ShardContext(spec)
        builder(self.ctx, **params)

    def first_report(self) -> ShardReport:
        ctx = self.ctx
        return ShardReport(shard=ctx.shard, next_time=ctx.sim.peek(),
                           sent=ctx._take_outbox(),
                           barriers=ctx._take_posts())

    def run_grain(self, plan: GrainPlan) -> ShardReport:
        ctx = self.ctx
        sim = ctx.sim
        m = ctx.metrics
        log = ctx.log
        t0 = time.perf_counter()
        for name, t_rel in plan.releases:
            ctx._apply_release(name, t_rel)
        if log.enabled:
            for arrival, src, seq, _, kind, nbytes, _ in plan.deliver:
                # The (src, seq) pair is the join key linking this
                # half to the sender's xshard_send.
                log.emit(arrival, XSHARD_RECV, src=src, seq=seq,
                         msg=kind, nbytes=nbytes)
        m.msgs_recv += len(plan.deliver)
        for arrival, _, _, _, kind, _, payload in plan.deliver:
            ctx._schedule_delivery(kind, payload, arrival)
        backlog = sim.pending
        if backlog > m.max_backlog:
            m.max_backlog = backlog
        t_clock = sim.now
        n = sim.run_before(plan.horizon)
        m.grains += 1
        m.events += n
        if n == 0:
            m.stall_grains += 1
        if log.enabled:
            attrs = {"round": plan.round, "events": n,
                     "delivered": len(plan.deliver),
                     "dur": sim.now - t_clock, "stall": n == 0}
            if plan.horizon != INF:
                attrs["horizon"] = plan.horizon
            log.emit(t_clock, SYNC_ROUND, **attrs)
        m.busy_s += time.perf_counter() - t0
        return ShardReport(shard=ctx.shard, next_time=sim.peek(),
                           sent=ctx._take_outbox(),
                           barriers=ctx._take_posts())

    def finish(self) -> ShardOutput:
        ctx = self.ctx
        ctx._check_quiescent()
        for fn in ctx._finishers:
            fn()
        ctx.metrics.final_clock_us = ctx.sim.now
        return ShardOutput(shard=ctx.shard, outputs=ctx.outputs,
                           metrics=ctx.metrics,
                           events=ctx.sim.events_processed,
                           now=ctx.sim.now, trace=pack_events(ctx.log),
                           trace_dropped=ctx.log.dropped_events)


class ShardedError(SimulationError):
    """A shard worker died; carries its traceback."""


def _recv(channel: PipeChannel, shard: int, want: str):
    """Next ``want`` message from shard ``shard``'s worker."""
    try:
        tag, body = channel.recv()
    except ChannelClosed as exc:
        raise ShardedError(
            f"shard {shard} worker exited unexpectedly") from exc
    if tag == "error":
        raise ShardedError(f"shard {shard} failed:\n{body}")
    if tag != want:  # pragma: no cover - protocol guard
        raise ShardedError(f"shard {shard}: expected {want!r}, got {tag!r}")
    return body


def _peer_main(conn, foreign, spec: ShardSpec, builder: Callable,
               params: Dict[str, Any]) -> None:
    """Process entry point of shards 1..N-1 of the mp backend."""
    for end in foreign:
        end.close()
    channel = PipeChannel(conn)
    try:
        state = ShardWorkerState(spec, builder, params)
        channel.send(("report", state.first_report()))
        while True:
            wire = channel.recv()
            if wire is None:
                channel.send(("output", state.finish()))
                return
            plan = GrainPlan.from_wire(wire)
            channel.send(("report", state.run_grain(plan)))
    except ChannelClosed:
        pass                    # the lead is gone: nobody left to tell
    except Exception:
        try:
            channel.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - lead already gone
            pass
    finally:
        channel.close()


def _lead_main(done_conn, peer_conns, foreign, spec: ShardSpec,
               builder: Callable, params: Dict[str, Any]) -> None:
    """Process entry point of the lead worker: shard 0 plus the
    coordinator, so a round costs one pipe hop per peer and the lead's
    own grain overlaps the peers'.  Sends the parent exactly one
    message: ``("done", outputs, coordinator counters)`` or
    ``("error", text)``."""
    for end in foreign:
        end.close()
    done = PipeChannel(done_conn)
    peers = [PipeChannel(conn) for conn in peer_conns]

    def gather(local, want):
        return [local] + [_recv(ch, i, want)
                          for i, ch in enumerate(peers, start=1)]

    def tell(messages):
        for i, (ch, message) in enumerate(zip(peers, messages), start=1):
            try:
                ch.send(message)
            except ChannelClosed as exc:
                raise ShardedError(
                    f"shard {i} worker exited unexpectedly") from exc

    try:
        coord = SyncCoordinator(spec.lookahead, spec.nshards)
        state = ShardWorkerState(spec, builder, params)
        reports = gather(state.first_report(), "report")
        while True:
            plans = coord.round(reports)
            if plans[0].done:
                tell([None] * len(peers))
                outputs = gather(state.finish(), "output")
                done.send(("done", outputs, coord.counters()))
                return
            # Every peer gets its plan before the lead starts its own
            # grain, so all grains overlap — this is where the
            # parallelism lives.
            tell([plan.to_wire() for plan in plans[1:]])
            reports = gather(state.run_grain(plans[0]), "report")
    except ShardedError as exc:
        done.send(("error", str(exc)))
    except Exception:
        done.send(("error", f"shard 0 failed:\n{traceback.format_exc()}"))
    finally:
        for ch in peers:
            ch.close()
        done.close()


class ShardedSimulator:
    """Front end of ``nshards`` conservative shard workers.

    Not a :class:`Simulator` subclass on purpose: it has no single
    clock or heap, and every capability it offers goes through
    :meth:`run`.
    """

    def __init__(self, nshards: int, lookahead=None, mode: str = "mp",
                 mp_context: Optional[str] = None, trace: bool = False,
                 trace_max_events: Optional[int] = None) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        if mode not in ("mp", "inproc"):
            raise ValueError(f"unknown shard backend {mode!r}")
        self.nshards = nshards
        self.mode = mode
        self.lookahead = lookahead
        self.trace = trace
        self.trace_max_events = trace_max_events
        if mp_context is None:
            mp_context = ("fork" if "fork"
                          in multiprocessing.get_all_start_methods()
                          else "spawn")
        self.mp_context = mp_context
        self.last_run: Optional[ShardedRun] = None

    # -- entry point --------------------------------------------------

    def run(self, builder: Callable, params: Optional[Dict[str, Any]] = None,
            *, lookahead=None) -> ShardedRun:
        """Build every shard with ``builder(ctx, **params)`` and drive
        the synchronization rounds to global termination."""
        params = dict(params or {})
        la = lookahead if lookahead is not None else self.lookahead
        if la is None:
            raise SyncError(
                "a lookahead (scalar µs or SxS matrix) is required: "
                "derive one with repro.network.partition.lookahead_matrix")
        matrix = normalize_lookahead(la, self.nshards)
        frozen = tuple(tuple(row) for row in matrix)
        specs = [ShardSpec(shard_id=i, nshards=self.nshards,
                           lookahead=frozen, trace=self.trace,
                           trace_max_events=self.trace_max_events)
                 for i in range(self.nshards)]
        t0 = time.perf_counter()
        drive = (self._drive_inproc
                 if self.mode == "inproc" or self.nshards == 1
                 else self._drive_mp)
        outputs, (rounds, msgs_routed, channel_bytes) = drive(
            specs, builder, params)
        wall = time.perf_counter() - t0
        for out in outputs:
            out.metrics.channel_bytes = channel_bytes[out.shard]
        run = ShardedRun(
            nshards=self.nshards, mode=self.mode,
            outputs=[o.outputs for o in outputs],
            metrics=[o.metrics for o in outputs],
            events=sum(o.events for o in outputs),
            now=max((o.now for o in outputs), default=0.0),
            rounds=rounds, msgs_routed=msgs_routed, wall_s=wall,
            shard_events=[o.trace for o in outputs],
            trace_dropped=sum(o.trace_dropped for o in outputs))
        self.last_run = run
        return run

    # -- backends -----------------------------------------------------

    # Both return ``(outputs in shard order, coordinator counters)``.

    def _drive_inproc(self, specs, builder, params):
        coord = SyncCoordinator(specs[0].lookahead, self.nshards)
        workers = [ShardWorkerState(spec, builder, params)
                   for spec in specs]
        reports = [w.first_report() for w in workers]
        while True:
            plans = coord.round(reports)
            if plans[0].done:
                return [w.finish() for w in workers], coord.counters()
            reports = [w.run_grain(plan)
                       for w, plan in zip(workers, plans)]

    def _drive_mp(self, specs, builder, params):
        """Start the lead and the peers, wait for the lead's one result
        message, reap."""
        ctx = multiprocessing.get_context(self.mp_context)
        done_rx, done_tx = ctx.Pipe(duplex=False)
        pipes = [ctx.Pipe(duplex=True) for _ in specs[1:]]
        lead_ends = [lead for lead, _ in pipes]
        ends = [done_rx, done_tx] + [end for pair in pipes for end in pair]
        # A forked child inherits every end open in the parent; each
        # must close the ones it does not own, or a dead process's pipe
        # never reads EOF in its correspondent.  (Spawned children get
        # only the ends passed to them.)
        inherits = ctx.get_start_method() == "fork"

        def foreign(own):
            return [e for e in ends if e not in own] if inherits else []

        procs = [ctx.Process(
            target=_lead_main, name="shard-0", daemon=True,
            args=(done_tx, lead_ends, foreign([done_tx] + lead_ends),
                  specs[0], builder, params))]
        for spec, (_, peer_end) in zip(specs[1:], pipes):
            procs.append(ctx.Process(
                target=_peer_main, name=f"shard-{spec.shard_id}",
                daemon=True,
                args=(peer_end, foreign([peer_end]), spec, builder,
                      params)))
        ok = False
        try:
            for proc in procs:
                proc.start()
            for end in ends[1:]:
                end.close()
            try:
                msg = PipeChannel(done_rx).recv()
            except ChannelClosed as exc:
                raise ShardedError(
                    "shard 0 worker exited unexpectedly") from exc
            if msg[0] != "done":
                raise ShardedError(msg[1])
            ok = True
            return msg[1], msg[2]
        finally:
            for end in ends:
                end.close()
            for proc in procs:
                if proc.pid is None:       # never started
                    continue
                if not ok:
                    proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hang guard
                    proc.kill()
                    proc.join()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedSimulator nshards={self.nshards} "
                f"mode={self.mode!r}>")
