"""Shard programs: workloads written for ``ShardedSimulator``.

The Field mix lives here, built so its *virtual-time* behaviour is a
pure function of message timestamps — the property that makes results
independent of how nodes are partitioned into shards.  It and the KV
traffic model beside it (:mod:`repro.workloads.kv_traffic`) send
through one wire model, :class:`ShardWire`, and start through one
front door, :func:`run_sharded`.

**Field mix** (:func:`run_field_sharded`) — the DIS Field traffic
pattern (short compute, a relaxed PUT of a field element to the right
neighbour node, a couple of blocking probe round-trips, a closing
barrier) recast as a message-passing shard program.  Unlike the
full-runtime Field bench this mix charges NIC send overhead inline
instead of serializing through a shared
:class:`~repro.sim.resource.Resource` — two threads queueing on one
NIC at the *same instant* would acquire it in event-insertion order,
which is not layout-invariant.  Contention-free send paths plus
commutative same-time effects (the per-node digest is an order-
insensitive sum) are what make the cross-shard determinism claim a
theorem rather than an observation.

The referees the tests hold the sharded core to — the same generator
code on one pooled :class:`~repro.sim.simulator.Simulator`, and a
fuzz-corpus skeleton that replays race-free fuzz programs as shard
programs — are test code, in ``tests/sim/shard_referees.py``.
"""

from __future__ import annotations

import numpy as np

from repro.network.params import MACHINES, MachineParams
from repro.network.partition import lookahead_matrix, partition_nodes
from repro.network.topology import make_topology
from repro.obs.events import EventLog, OP_BEGIN, OP_END
from repro.runtime.collectives import ShardBarrier, dissemination_cost_us
from repro.sim.shard import ShardContext, ShardedRun, ShardedSimulator

#: Node granularity of the Field mix (paper: 4 threads per
#: MareNostrum blade).
FIELD_THREADS_PER_NODE = 4

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Per-slot bucket-scan cost a kv handler folds into its reply
#: latency (mirrors the full runtime's KVStore rpc handler cost).
_KV_SCAN_US = 0.02


class ShardWire:
    """The one wire model of the shard programs.

    A message of ``nbytes`` from node ``src`` to node ``dst`` arrives
    after the topology latency, the serialization time and ``extra``
    — the service cost a handler folds into its reply, so handlers
    stay instantaneous (and therefore commutative) at arrival.  The AM
    path's is :attr:`service_us`: dispatch, the SVD lookup at the home
    node and handler CPU, the three costs a one-sided access skips.

    With a shard context the wire claims this shard's share of the
    balanced partition (``ctx.set_nodes``) and routes :meth:`send` to
    the destination node's shard; without one it covers every node
    and only :meth:`latency` is meaningful (the test-side pooled Field
    referee).
    Latencies are tabulated once from every node homed here, where
    every send starts."""

    def __init__(self, machine: MachineParams, nnodes: int,
                 ctx: ShardContext = None) -> None:
        t = self.t = machine.transport
        self.ctx = ctx
        self.nnodes = nnodes
        self.topo = make_topology(machine, nnodes)
        self.service_us = t.dispatch_us + t.svd_lookup_us + t.handler_cpu_us
        part = partition_nodes(nnodes, ctx.nshards if ctx else 1)
        self.nodes = range(*part.range_of(ctx.shard if ctx else 0))
        if ctx is not None:
            ctx.set_nodes(self.nodes.start, self.nodes.stop)
        self.shard_of = [part.shard_of(n) for n in range(nnodes)]
        self._lat = {a: [self.topo.latency(a, b) for b in range(nnodes)]
                     for a in self.nodes}

    def latency(self, src: int, dst: int, nbytes: int,
                extra: float = 0.0) -> float:
        return self._lat[src][dst] + self.t.wire_time(nbytes) + extra

    def send(self, src: int, dst: int, kind: str, payload, nbytes: int,
             extra: float = 0.0) -> None:
        # latency() written out: one call fewer per message.
        self.ctx.send(self.shard_of[dst], kind, payload,
                      latency=(self._lat[src][dst]
                               + self.t.wire_time(nbytes) + extra),
                      nbytes=nbytes)


def run_sharded(builder, params: dict, machine: MachineParams,
                nnodes: int, nshards: int, *, trace: bool,
                trace_max_events) -> ShardedRun:
    """The one front door of the shard programs: ``builder(ctx,
    **params)`` on each of ``nshards`` shards of ``nnodes`` nodes, with
    the lookahead of the balanced partition :class:`ShardWire` uses.
    ``trace=True`` arms every shard's flight recorder (packed batches
    on ``run.shard_events``); recording never touches the simulation."""
    lookahead = lookahead_matrix(machine, nnodes,
                                 partition_nodes(nnodes, nshards))
    return ShardedSimulator(
        nshards, lookahead=lookahead, trace=trace,
        trace_max_events=trace_max_events,
    ).run(builder, params)


def _jitter(a: int, b: int) -> float:
    """Deterministic per-(a, b) fraction in [0, 1) — same generator
    the sim-core bench uses, so thread start times decorrelate without
    any RNG state."""
    return ((a * 2654435761 + b * 97003 + 12345) & 1023) / 1024.0


def _tq(t: float) -> int:
    """Quantize a virtual time (µs) to an integer picosecond-ish key
    for digests/traces (exact for the model's float sums)."""
    return int(round(t * 1e6))


def _fnv(data: bytes, acc: int = _FNV_OFFSET) -> int:
    for byte in data:
        acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    return acc


def _mix(acc: int, *ints: int) -> int:
    """Order-sensitive fold of integers into a running digest."""
    for value in ints:
        acc = _fnv(int(value & _MASK64).to_bytes(8, "little"), acc)
    return acc


def _commute_hash(*ints: int) -> int:
    """Hash of one effect, summed (mod 2^64) into a per-node digest —
    addition commutes, so same-time effects fold identically whatever
    order a layout delivers them in."""
    return _mix(_FNV_OFFSET, *ints)


def _commute_hash_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`_commute_hash` of every row of an int64 matrix at once
    (uint64 array arithmetic wraps mod 2^64, like the masked scalar
    fold): one byte column per step instead of one byte."""
    octets = (np.ascontiguousarray(rows, dtype="<i8")
              .view(np.uint8).reshape(len(rows), 8 * rows.shape[1]))
    acc = np.full(len(rows), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in octets.T:
        acc ^= column
        acc *= prime
    return acc


# ---------------------------------------------------------------------------
# Field mix
# ---------------------------------------------------------------------------

class _FieldMix:
    """Per-shard (or whole-machine) Field-mix state and handlers.

    ``transmit(src_node, dst_node, kind, payload, nbytes, extra)`` is
    injected by the backend: the sharded builder passes
    :meth:`ShardWire.send`; the reference schedules the delivery on its
    own simulator after :meth:`ShardWire.latency`.  Everything else —
    thread generators, handlers, costs — is byte-for-byte the same code
    in both."""

    def __init__(self, sim, wire: ShardWire, transmit,
                 log: "EventLog" = None) -> None:
        self.sim = sim
        self.wire = wire
        self.t = wire.t
        self.nnodes = wire.nnodes
        self.transmit = transmit
        self.field = {node: {} for node in wire.nodes}
        self.node_digest = {node: 0 for node in wire.nodes}
        self.trace = []
        self._pending = {}
        #: Flight recorder for op spans (``fput``/``probe``); defaults
        #: to a disabled log so the reference path and untraced runs
        #: pay nothing but the ``log.enabled`` check.
        self.log = log if log is not None else EventLog(enabled=False)

    # -- handlers (run at arrival; effects commute at equal times) ----

    def handle_fput(self, payload) -> None:
        dst, src_tid, tok = payload
        self.field[dst][src_tid] = tok
        self.node_digest[dst] = (
            self.node_digest[dst]
            + _commute_hash(src_tid, tok, _tq(self.sim.now))) & _MASK64

    def handle_probe(self, payload) -> None:
        dst, src_node, req = payload
        # Service cost rides in the reply latency; the handler itself
        # is instantaneous, so same-time probes commute.
        self.transmit(dst, src_node, "preply", (req, _tq(self.sim.now)),
                      nbytes=16, extra=self.wire.service_us)

    def handle_preply(self, payload) -> None:
        req, served = payload
        self._pending.pop(req).succeed(value=served)

    # -- the thread body ----------------------------------------------

    def thread(self, node: int, tid: int, ntokens: int, probes: int):
        sim, t, log = self.sim, self.t, self.log
        for tok in range(ntokens):
            yield 2.0 + 3.0 * _jitter(tid, tok)
            # Relaxed PUT of the field element to the right neighbour.
            yield t.o_sw_us + t.o_send_us + t.nic_gap_us
            dst = (node + 1) % self.nnodes
            if log.enabled:
                # Fire-and-forget: zero-duration span at injection.
                op = log.next_op_id()
                log.emit(sim.now, OP_BEGIN, op=op, thread=tid,
                         node=node, name="fput", nbytes=64)
                log.emit(sim.now, OP_END, op=op, thread=tid,
                         node=node, dst=dst, tok=tok)
            self.transmit(node, dst, "fput", (dst, tid, tok), nbytes=64)
            for p in range(probes):
                other = ((node + 1) % self.nnodes if (tok + p) % 2 == 0
                         else (node - 1) % self.nnodes)
                yield t.o_sw_us + t.o_send_us + t.nic_gap_us
                req = (tid, tok, p)
                op = -1
                if log.enabled:
                    op = log.next_op_id()
                    log.emit(sim.now, OP_BEGIN, op=op, thread=tid,
                             node=node, name="probe", nbytes=64)
                gate = sim.event(name=f"probe{req}")
                self._pending[req] = gate
                self.transmit(node, other, "probe",
                              (other, node, req), nbytes=64)
                served = yield gate
                yield t.o_recv_us
                if op >= 0:
                    log.emit(sim.now, OP_END, op=op, thread=tid,
                             node=node, dst=other, tok=tok, served=served)
                self.trace.append((_tq(sim.now), tid, tok, p, served))
        op = -1
        if log.enabled:
            op = log.next_op_id()
            log.emit(sim.now, OP_BEGIN, op=op, thread=tid, node=node,
                     name="field_barrier")
        yield from self.barrier_wait()
        if op >= 0:
            log.emit(sim.now, OP_END, op=op, thread=tid, node=node)
        self.trace.append((_tq(sim.now), tid, -1, -1, 0))


def _field_node_of(tid: int, nnodes: int) -> int:
    return min(tid // FIELD_THREADS_PER_NODE, nnodes - 1)


def field_nnodes(nthreads: int) -> int:
    return max(1, nthreads // FIELD_THREADS_PER_NODE)


def build_field_shard(ctx: ShardContext, nthreads: int = 32,
                      ntokens: int = 4, probes: int = 2,
                      machine: str = "gm") -> None:
    """Shard-program builder for the Field mix (runs once per
    shard)."""
    m = MACHINES[machine]
    nnodes = field_nnodes(nthreads)
    wire = ShardWire(m, nnodes, ctx)
    core = _FieldMix(ctx.sim, wire, wire.send, log=ctx.log)
    ctx.on_message("fput", core.handle_fput)
    ctx.on_message("probe", core.handle_probe)
    ctx.on_message("preply", core.handle_preply)
    barrier = ShardBarrier(
        ctx, expected=nthreads,
        cost_us=dissemination_cost_us(m, nnodes, m.transport),
        entry_us=m.transport.o_sw_us)
    core.barrier_wait = lambda: barrier.wait(generation=0)
    for tid in range(nthreads):
        node = _field_node_of(tid, nnodes)
        if node in wire.nodes:
            ctx.spawn(core.thread(node, tid, ntokens, probes),
                      name=f"field-t{tid}")
    ctx.publish("trace", core.trace)
    ctx.publish("field", core.field)
    ctx.publish("digest", core.node_digest)


def run_field_sharded(nthreads: int, nshards: int, *, ntokens: int = 4,
                      probes: int = 2, machine: str = "gm",
                      trace: bool = False,
                      trace_max_events=None) -> dict:
    """Run the Field mix under ``nshards`` shards and merge outputs
    (``trace``: see :func:`run_sharded`)."""
    run = run_sharded(build_field_shard,
                      dict(nthreads=nthreads, ntokens=ntokens,
                           probes=probes, machine=machine),
                      MACHINES[machine], field_nnodes(nthreads), nshards,
                      trace=trace, trace_max_events=trace_max_events)
    return _merge_field_outputs(run)


def _merge_field_outputs(run: ShardedRun) -> dict:
    trace, field, digest = [], {}, {}
    for out in run.outputs:
        trace.extend(out["trace"])
        field.update(out["field"])
        digest.update(out["digest"])
    return {"trace": sorted(trace), "field": field, "digest": digest,
            "now": run.now, "events": run.events, "run": run}
