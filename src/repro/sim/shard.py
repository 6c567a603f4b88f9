"""The sharded PDES core: N event loops + conservative sync.

:class:`ShardedSimulator` is the entry point: the cluster's nodes are
partitioned into ``N`` contiguous groups
(:mod:`repro.network.partition`), each group simulated by its own
:class:`~repro.sim.simulator.Simulator` advancing under the
barrier-window protocol of :mod:`repro.sim.sync`.  Every shard and the
coordinator run in the calling interpreter: a round hands each shard
its plan in shard order, runs its grain, and collects its report.
(A backend with one worker process per shard ran 0.65–0.84× as fast as
one in-process shard on the benchmark's traffic and went; see
docs/PERFORMANCE.md, "When sharding wins".)

A *shard program* is a builder ``builder(ctx, **params)`` that
populates a :class:`ShardContext` with simulated processes.  The
context is the only doorway to other shards: ``ctx.send`` stamps every
cross-shard message with ``send time + wire latency`` and *validates*
the latency against the lookahead matrix, so conservative horizons are
enforced, not assumed.  Full-runtime workloads (whose protocol
generators span initiator and target node state) still run on the
single :class:`Simulator` — that core remains the determinism referee; the
sharded core hosts workloads written against message-passing shard
boundaries.

Determinism contract: for a fixed shard count, results are bit
identical across runs (delivery order is the total ``(arrival, src,
seq)`` order, and shards interact only at round boundaries).  Across
*different* shard counts, a workload sees identical virtual-time
behaviour provided its same-time cross-shard effects commute (the
discipline all bundled workloads and the test-side fuzz-corpus
skeleton, ``tests/sim/shard_referees.py``, follow); the determinism
suite asserts this for shards ∈ {1, 2, 4}.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

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


@dataclass
class ShardedRun:
    """Aggregate result of :meth:`ShardedSimulator.run`."""

    nshards: int
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


class _Delivery(partial):
    """What the heap carries for a message arriving at its handler: no
    process waits on a delivery, so it needs no event.  It is
    ``partial(handler, payload)``, and the dispatch loop's
    ``_process()`` call enters the handler from C."""

    __slots__ = ()
    _process = partial.__call__


class ShardContext:
    """A shard program's handle on its local core and its neighbours."""

    def __init__(self, shard: int, nshards: int, lookahead, *,
                 trace: bool = False,
                 trace_max_events: Optional[int] = None) -> None:
        self.shard = shard
        self.nshards = nshards
        self.sim = Simulator()
        self.metrics = ShardMetrics(shard=shard)
        #: Per-shard flight recorder.  Off (the default) costs one
        #: branch per instrumentation site; on, emits are pure list
        #: appends (never simulator events), so tracing leaves virtual
        #: time bit-identical.  ``trace_max_events`` bounds it
        #: (drop-newest).
        self.log = EventLog(enabled=trace, max_events=trace_max_events)
        self.outputs: Dict[str, Any] = {}
        self._lookahead_row = lookahead[shard]
        #: Cross-shard messages sent since the last report, one list
        #: per destination shard.
        self._outboxes: List[List[WireMessage]] = [
            [] for _ in range(nshards)]
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
        """Export a result; lands in ``ShardedRun.outputs``."""
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
        if not latency >= 0:        # NaN fails this test too
            raise SimulationError(f"negative send latency {latency}")
        sim = self.sim
        now = sim.now
        arrival = now + latency
        if dst == self.shard:
            handler = self._handlers.get(kind)
            if handler is None:
                raise SimulationError(
                    f"shard {self.shard}: no handler for message {kind!r}")
            sim._schedule(_Delivery(handler, payload), arrival - now)
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
        seq = self._seq = self._seq + 1
        self._outboxes[dst].append((arrival, self.shard, seq, dst, kind,
                                    nbytes, payload))
        if self.log.enabled:
            self.log.emit(now, XSHARD_SEND, src=self.shard, seq=seq,
                          dst=dst, msg=kind, arrival=arrival,
                          nbytes=nbytes)

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

    # -- the round ----------------------------------------------------

    def _report(self) -> ShardReport:
        """What this shard tells the coordinator at a round boundary;
        takes the messages and barrier posts made since the last."""
        sent = self._outboxes
        self._outboxes = [[] for _ in sent]
        self.metrics.msgs_sent += sum(map(len, sent))
        posts, self._posts = self._posts, []
        return ShardReport(shard=self.shard, next_time=self.sim.peek(),
                           sent=sent, barriers=posts)

    def _run_grain(self, plan: GrainPlan) -> ShardReport:
        """Apply the plan's releases and deliveries, then run every
        local event strictly below its horizon."""
        sim = self.sim
        m = self.metrics
        log = self.log
        t0 = time.perf_counter()
        for name, t_rel in plan.releases:
            self._apply_release(name, t_rel)
        deliver = plan.deliver
        if log.enabled:
            for arrival, src, seq, _, kind, nbytes, _ in deliver:
                # The (src, seq) pair is the join key linking this
                # half to the sender's xshard_send.
                log.emit(arrival, XSHARD_RECV, src=src, seq=seq,
                         msg=kind, nbytes=nbytes)
        m.msgs_recv += len(deliver)
        now = sim.now
        if deliver and deliver[0][0] < now:     # in arrival order
            raise SyncError(
                f"shard {self.shard}: {deliver[0][4]!r} arrival "
                f"{deliver[0][0]:.6f} is in the past (now={now:.6f}) — "
                "conservative horizon violated")
        handlers = self._handlers
        schedule = sim._schedule
        for arrival, _, _, _, kind, _, payload in deliver:
            handler = handlers.get(kind)
            if handler is None:
                raise SimulationError(
                    f"shard {self.shard}: no handler for message {kind!r}")
            schedule(_Delivery(handler, payload), arrival - now)
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
                     "delivered": len(deliver),
                     "dur": sim.now - t_clock, "stall": n == 0}
            if plan.horizon != INF:
                attrs["horizon"] = plan.horizon
            log.emit(t_clock, SYNC_ROUND, **attrs)
        m.busy_s += time.perf_counter() - t0
        return self._report()

    def _finish(self) -> None:
        """After global termination: fail a crashed or stuck process,
        then run the ``at_finish`` hooks."""
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
        for fn in self._finishers:
            fn()
        self.metrics.final_clock_us = self.sim.now
        # Hooks and handlers are bound methods of a program holding this
        # context: drop them, and refcounting frees the run's state.
        self._finishers.clear()
        self._handlers.clear()


class ShardedSimulator:
    """Front end of ``nshards`` conservative shards.

    Not a :class:`Simulator` subclass on purpose: it has no single
    clock or heap, and every capability it offers goes through
    :meth:`run`.
    """

    def __init__(self, nshards: int, lookahead=None, trace: bool = False,
                 trace_max_events: Optional[int] = None) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        self.nshards = nshards
        self.lookahead = lookahead
        self.trace = trace
        self.trace_max_events = trace_max_events

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
        t0 = time.perf_counter()
        coord = SyncCoordinator(matrix, self.nshards)
        shards = []
        for i in range(self.nshards):
            ctx = ShardContext(i, self.nshards, matrix, trace=self.trace,
                               trace_max_events=self.trace_max_events)
            builder(ctx, **params)
            shards.append(ctx)
        reports = [ctx._report() for ctx in shards]
        while True:
            plans = coord.round(reports)
            if plans[0].done:
                break
            reports = [ctx._run_grain(plan)
                       for ctx, plan in zip(shards, plans)]
        for ctx in shards:
            ctx._finish()
            ctx.metrics.channel_bytes = coord.channel_bytes[ctx.shard]
        return ShardedRun(
            nshards=self.nshards,
            outputs=[ctx.outputs for ctx in shards],
            metrics=[ctx.metrics for ctx in shards],
            events=sum(ctx.sim.events_processed for ctx in shards),
            now=max(ctx.sim.now for ctx in shards),
            rounds=coord.rounds, msgs_routed=coord.msgs_routed,
            wall_s=time.perf_counter() - t0,
            shard_events=[pack_events(ctx.log) for ctx in shards],
            trace_dropped=sum(ctx.log.dropped_events for ctx in shards))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardedSimulator nshards={self.nshards}>"
