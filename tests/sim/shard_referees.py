"""Referees of the shard programs, kept beside the tests.

No product path runs these; each exists so a test can hold the sharded
core (``repro.sim.shard``) and the Field mix of
:mod:`repro.workloads.sharded` to an independent account:

**Field reference** (:func:`run_field_reference`) — the Field mix's
thread generators and handlers on one pooled :class:`Simulator`, with
no shard machinery anywhere.  The sharded runs must reproduce its
trace, field contents and digests bit for bit.

**Fuzz-corpus skeleton** (:func:`run_corpus_sharded`) — replays a
race-free fuzz :class:`~repro.testing.program.Program` as a shard
program: one node per UPC thread, shared objects homed by
``obj % nnodes`` (owner/allocating thread for non-collective allocs),
remote reads/writes as request/reply messages applied at arrival,
``upc_fence`` as ack-draining (:class:`ShardFence`) and collectives
as coordinator barriers (:class:`~repro.runtime.collectives.ShardBarrier`).
The race discipline the validator enforces is exactly what makes
arrival-time application sound: a write's ack returns before the
writer's barrier arrival, the barrier releases after *every* arrival,
and any reader issues after the release — so apply-before-read is
ordered by timestamps alone, on any shard layout.  The full XLUPC
runtime still replays the corpus on the pooled core (the determinism
referee); the skeleton is how the *sharded* core proves layout
invariance on the same inputs.

Both send through the product's :class:`ShardWire` and start through
its :func:`run_sharded`.  The builders are module-level functions, so
an ``mp`` worker started under ``spawn`` imports them by name.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.network.params import MACHINES, MachineParams
from repro.runtime.collectives import ShardBarrier, dissemination_cost_us
from repro.sim.errors import SimulationError
from repro.sim.event import Event
from repro.sim.shard import ShardContext, _Delivery
from repro.sim.simulator import Simulator
from repro.testing.program import FENCING_KINDS, Program
from repro.workloads.sharded import (_FNV_OFFSET, _KV_SCAN_US, ShardWire,
                                     _FieldMix, _field_node_of, _fnv,
                                     _jitter, _mix, _tq, field_nnodes,
                                     run_sharded)

#: Cost of a skeleton access a thread serves from its own node.
_LOCAL_ACCESS_US = 0.3
_LOCK_LOCAL_US = 0.5
_CTRL_BYTES = 32


# ---------------------------------------------------------------------------
# Field reference
# ---------------------------------------------------------------------------

class _RefBarrier:
    """Counter barrier on one pooled simulator, release at
    ``max(arrival) + cost`` — mirrors what the sync coordinator
    resolves for :class:`ShardBarrier` so the reference and sharded
    Field runs release at identical virtual times."""

    def __init__(self, sim, expected: int, cost_us: float,
                 entry_us: float, exit_us: float = 0.2) -> None:
        self.sim = sim
        self.expected = expected
        self.cost_us = cost_us
        self.entry_us = entry_us
        self.exit_us = exit_us
        self._gates = {}
        self._arrived = {}

    def wait(self, generation: int = 0):
        sim = self.sim
        if self.entry_us:
            yield self.entry_us
        gate = self._gates.get(generation)
        if gate is None:
            gate = self._gates[generation] = sim.event(
                name=f"refbar@{generation}")
        n = self._arrived.get(generation, 0) + 1
        self._arrived[generation] = n
        if n == self.expected:
            gate.succeed(value=sim.now + self.cost_us,
                         delay=self.cost_us)
        yield gate
        if self.exit_us:
            yield self.exit_us


def run_field_reference(nthreads: int, *, ntokens: int = 4,
                        probes: int = 2, machine: str = "gm") -> dict:
    """The Field mix on one pooled :class:`Simulator` — no shard
    machinery anywhere — as the determinism referee."""
    m = MACHINES[machine]
    nnodes = field_nnodes(nthreads)
    sim = Simulator()
    procs = []

    def transmit(src, dst, kind, payload, nbytes, extra=0.0):
        # Same schedule-at-arrival path ShardContext uses.
        sim._schedule(_Delivery(handlers[kind], payload),
                      wire.latency(src, dst, nbytes, extra))

    def spawn(gen, name=""):
        proc = sim.process(gen, name=name)
        procs.append(proc)
        return proc

    wire = ShardWire(m, nnodes)
    core = _FieldMix(sim, wire, transmit)
    handlers = {"fput": core.handle_fput, "probe": core.handle_probe,
                "preply": core.handle_preply}
    barrier = _RefBarrier(sim, expected=nthreads,
                          cost_us=dissemination_cost_us(
                              m, nnodes, m.transport),
                          entry_us=m.transport.o_sw_us)
    core.barrier_wait = lambda: barrier.wait(generation=0)
    for tid in range(nthreads):
        spawn(core.thread(_field_node_of(tid, nnodes), tid, ntokens,
                          probes), name=f"field-t{tid}")
    sim.run()
    stuck = [p.name for p in procs if p.is_alive]
    if stuck:
        raise SimulationError(
            f"reference Field deadlocked: {stuck[:5]}")
    return {"trace": sorted(core.trace), "field": core.field,
            "digest": core.node_digest, "now": sim.now,
            "events": sim.events_processed, "run": None}


# ---------------------------------------------------------------------------
# Fence and fuzz-corpus skeleton
# ---------------------------------------------------------------------------

class ShardFence:
    """``upc_fence`` semantics for sharded programs.

    Remote stores cross shard boundaries as messages, so "my writes
    are globally visible" becomes "every write I issued has been
    acknowledged".  A writer takes a token per acked operation
    (:meth:`issue`), the ack handler resolves it (:meth:`ack`), and
    :meth:`wait` blocks until all outstanding tokens resolved —
    matching the pooled runtime's rule that a fence drains the
    issuing thread's outstanding PUT completions.
    """

    def __init__(self, ctx: ShardContext) -> None:
        self.ctx = ctx
        self._next = 0
        self._open: Dict[int, Event] = {}
        self.completed = 0

    @property
    def outstanding(self) -> int:
        return len(self._open)

    def issue(self) -> int:
        """Register one un-acked remote operation; returns its token
        (carry it in the request so the ack can name it)."""
        self._next += 1
        self._open[self._next] = Event(self.ctx.sim,
                                       name=f"fence-ack#{self._next}")
        return self._next

    def ack(self, token: int) -> None:
        """Resolve a token (call from the ack message handler)."""
        ev = self._open.pop(token, None)
        if ev is None:
            raise RuntimeError(f"unknown or duplicate fence token {token}")
        self.completed += 1
        ev.succeed()

    def wait(self):
        """Generator: block until every issued token was acked."""
        while self._open:
            # Oldest outstanding token first (dict preserves issue
            # order); its gate resolves when the ack arrives, then the
            # loop re-checks — acks landing meanwhile already removed
            # themselves.
            token = next(iter(self._open))
            yield self._open[token]


def _object_plan(program: Program, nnodes: int):
    """Walk the program once, assigning every object *incarnation* a
    unique id ``(obj, k)`` (ids may be reused after ``free``) plus its
    home node, and record which incarnation each phase sees.

    Returns ``(infos, eff_by_phase, final_live)`` where ``infos`` maps
    oid -> dict(nelems, dtype, kind, home, tile geometry) and
    ``eff_by_phase[pi]`` maps raw obj id -> oid during phase ``pi``.
    """
    infos, counts, current = {}, {}, {}

    def register(obj, home, nelems, dtype, kind="array", rows=0,
                 cols=0, tile_r=0, tile_c=0, slots=0):
        k = counts.get(obj, 0)
        counts[obj] = k + 1
        oid = (obj, k)
        infos[oid] = {"nelems": nelems, "dtype": dtype, "kind": kind,
                      "home": home % nnodes, "rows": rows,
                      "cols": cols, "tile_r": tile_r, "tile_c": tile_c,
                      "slots": slots}
        current[obj] = oid

    for s in program.scalars:
        register(s.obj, s.owner_thread, 1, s.dtype, kind="scalar")
    eff_by_phase = []
    for ph in program.phases:
        if ph.is_collective:
            op = ph.collective
            a = op.args
            if op.kind == "alloc":
                register(op.obj, op.obj, a["nelems"], a["dtype"])
            elif op.kind == "alloc_matrix":
                register(op.obj, op.obj, a["rows"] * a["cols"],
                         a["dtype"], kind="matrix", rows=a["rows"],
                         cols=a["cols"], tile_r=a["tile_r"],
                         tile_c=a["tile_c"])
            elif op.kind == "kv_create":
                # Bucket image: ``nbuckets`` buckets of ``slots``
                # (key_enc, value) cell pairs, homed like any other
                # collective alloc.  Access path / lock / blocksize
                # are full-runtime concerns; the skeleton serves every
                # kv op at the home node, so they do not change its
                # virtual-time behaviour.
                register(op.obj, op.obj,
                         a["nbuckets"] * 2 * a["slots"], "u8",
                         kind="kv", slots=a["slots"])
            elif op.kind in ("free", "kv_free"):
                current.pop(op.obj, None)
        else:
            for tid, lst in enumerate(ph.per_thread):
                for op in lst:
                    if op.kind in ("global_alloc", "local_alloc"):
                        register(op.obj, tid, op.args["nelems"],
                                 op.args["dtype"])
        eff_by_phase.append(dict(current))
    final_live = set((eff_by_phase[-1] if eff_by_phase else {}).values())
    return infos, eff_by_phase, final_live


def _mat_linear(info: dict, r: int, c: int) -> int:
    """Tile-major (row, col) -> linear index — same arithmetic as the
    program validator's `_matrix_linear` (kept independent of the
    runtime's SharedMatrix on purpose)."""
    tiles_c = info["cols"] // info["tile_c"]
    tile = (r // info["tile_r"]) * tiles_c + (c // info["tile_c"])
    within = (r % info["tile_r"]) * info["tile_c"] + (c % info["tile_c"])
    return tile * info["tile_r"] * info["tile_c"] + within


def _skeleton_spans(op, info):
    """(start, cnt, mode, values) spans an op touches; mode ``r``
    read, ``w`` relaxed write, ``s`` strict write, ``l`` RMW."""
    a, k = op.args, op.kind
    if k == "get":
        return [(a["index"], 1, "r", None)]
    if k in ("put", "memput"):
        return [(a["index"], len(a["values"]), "w", a["values"])]
    if k == "put_strict":
        return [(a["index"], len(a["values"]), "s", a["values"])]
    if k == "memget":
        return [(a["index"], a["nelems"], "r", None)]
    if k == "memget_v":
        return [(i, n, "r", None) for i, n in a["spans"]]
    if k == "memput_v":
        return [(i, len(v), "w", v) for i, v in a["puts"]]
    if k == "gather":
        return [(i, a.get("nelems", 1), "r", None)
                for i in a["indices"]]
    if k == "ptr_walk":
        return [(a["index"] + a["delta"], 1, "r", None)]
    if k == "lock_add":
        return [(a["index"], 1, "l", a["delta"])]
    if k == "get_rc":
        return [(_mat_linear(info, a["r"], a["c"]), 1, "r", None)]
    if k == "put_rc":
        return [(_mat_linear(info, a["r"], a["c"]), 1, "w",
                 [a["value"]])]
    if k == "memget_row":
        return [(_mat_linear(info, a["r"], a["c0"]), a["nelems"], "r",
                 None)]
    return []


def _wrap_int(value: int, dtype: np.dtype) -> int:
    bits = dtype.itemsize * 8
    if dtype.kind == "u":
        return value & ((1 << bits) - 1)
    half = 1 << (bits - 1)
    return ((value + half) % (1 << bits)) - half


class _SkeletonCore:
    """Per-shard state of the corpus-skeleton service.

    Every remote access is a request message applied (or served) at
    its arrival instant by a pure handler; service cost rides in the
    reply latency.  Fences drain write acks; collectives are
    generation-named coordinator barriers.  See the module docstring
    for why arrival-time application is sound under the corpus race
    discipline."""

    def __init__(self, sim, machine: MachineParams, program: Program,
                 wire: ShardWire, barrier, fences) -> None:
        self.sim = sim
        self.machine = machine
        self.t = machine.transport
        self.program = program
        self.nnodes = program.nthreads
        self.transmit = wire.send
        self.service_us = wire.service_us
        self.barrier = barrier      # (generation) -> generator
        self.fences = fences        # tid -> ShardFence-like
        self.infos, self.eff, self.final_live = _object_plan(
            program, self.nnodes)
        local = set(wire.nodes)
        #: Zero-initialised byte image of every incarnation homed
        #: here.  Unique oids mean upfront creation is safe even when
        #: raw object ids are reused after a free.
        self.images = {
            oid: bytearray(np.zeros(info["nelems"],
                                    dtype=np.dtype(info["dtype"]))
                           .tobytes())
            for oid, info in self.infos.items()
            if info["home"] in local}
        self.digests = {}
        self.finish = {}
        self._pending = {}
        self._reqseq = 0

    # -- handlers ------------------------------------------------------

    def handle_sput(self, payload) -> None:
        oid, start, data, src_node, token = payload
        isz = np.dtype(self.infos[oid]["dtype"]).itemsize
        self.images[oid][start * isz:start * isz + len(data)] = data
        self.transmit(self.infos[oid]["home"], src_node, "sack",
                      (src_node, token), _CTRL_BYTES,
                      extra=self.service_us)

    def handle_sack(self, payload) -> None:
        dst_node, token = payload
        self.fences[dst_node].ack(token)

    def handle_sget(self, payload) -> None:
        oid, start, cnt, src_node, req = payload
        isz = np.dtype(self.infos[oid]["dtype"]).itemsize
        data = bytes(self.images[oid][start * isz:(start + cnt) * isz])
        self.transmit(self.infos[oid]["home"], src_node, "srep",
                      (req, data, _tq(self.sim.now)),
                      len(data) + _CTRL_BYTES, extra=self.service_us)

    def handle_sadd(self, payload) -> None:
        oid, index, delta, src_node, req = payload
        dt = np.dtype(self.infos[oid]["dtype"])
        img = self.images[oid]
        off = index * dt.itemsize
        old = int(np.frombuffer(bytes(img[off:off + dt.itemsize]),
                                dtype=dt)[0])
        raw = _wrap_int(old + int(delta), dt)
        img[off:off + dt.itemsize] = np.array([raw], dtype=dt).tobytes()
        self.transmit(self.infos[oid]["home"], src_node, "srep",
                      (req, b"", _tq(self.sim.now)),
                      _CTRL_BYTES, extra=self.service_us)

    def handle_skv(self, payload) -> None:
        oid, verb, args, src_node, req = payload
        reply = self._kv_exec(oid, verb, args)
        data = np.asarray(reply, dtype="<i8").tobytes()
        self.transmit(self.infos[oid]["home"], src_node, "srep",
                      (req, data, _tq(self.sim.now)),
                      len(data) + _CTRL_BYTES,
                      extra=self.service_us
                      + _KV_SCAN_US * self.infos[oid]["slots"])

    def handle_srep(self, payload) -> None:
        req, data, served = payload
        self._pending.pop(req).succeed(value=(data, served))

    # -- kv execution (at the home node, instantaneous) ----------------

    def _kv_exec(self, oid, verb, args):
        """Apply one kv op to the home image; returns the reply as a
        list of ints (values for get/mget, found-flag for del, empty
        for put).  Same slot discipline as the full-runtime KVStore —
        matching key first, else first empty — so decoded images stay
        byte-comparable with runtime snapshots."""
        info = self.infos[oid]
        slots = info["slots"]
        span = 2 * slots
        nbuckets = info["nelems"] // span
        img = self.images[oid]

        def cells(b):
            off = b * span * 8
            return np.frombuffer(bytes(img[off:off + span * 8]),
                                 dtype=np.uint64)

        def lookup(key):
            c = cells(key % nbuckets)
            enc = key + 1
            for s in range(slots):
                if int(c[2 * s]) == enc:
                    return int(c[2 * s + 1])
            return -1

        if verb == "kv_get":
            return [lookup(args[0])]
        if verb == "kv_mget":
            return [lookup(k) for k in args]
        b = args[0] % nbuckets
        c = cells(b)
        enc = args[0] + 1
        if verb == "kv_put":
            slot = next((s for s in range(slots)
                         if int(c[2 * s]) == enc), -1)
            if slot < 0:
                slot = next((s for s in range(slots)
                             if int(c[2 * s]) == 0), -1)
            # Validated programs never overflow a bucket (the
            # program checker tracks occupancy), so slot >= 0 here.
            off = (b * span + 2 * slot) * 8
            img[off:off + 16] = np.array(
                [enc, args[1]], dtype=np.uint64).tobytes()
            return []
        # kv_del
        for s in range(slots):
            if int(c[2 * s]) == enc:
                off = (b * span + 2 * s) * 8
                img[off:off + 8] = np.zeros(1, dtype=np.uint64) \
                    .tobytes()
                return [1]
        return [0]

    # -- request helpers (generators) ----------------------------------

    def _request(self, tid, kind, body, nbytes):
        """Issue a blocking request to a home node; returns
        ``(data, served_time)``."""
        sim, t = self.sim, self.t
        yield t.o_sw_us + t.o_send_us
        self._reqseq += 1
        req = (tid, self._reqseq)
        gate = sim.event(name=f"req{req}")
        self._pending[req] = gate
        home = self.infos[body[0]]["home"]
        self.transmit(tid, home, kind, body + (tid, req), nbytes)
        data, served = yield gate
        yield t.o_recv_us
        return data, served

    # -- per-op execution ----------------------------------------------

    def exec_op(self, tid, op, pi, oi, eff, fence):
        sim, t = self.sim, self.t
        k = op.kind
        if k == "compute":
            yield 0.8 + 1.7 * _jitter(tid, pi * 8192 + oi)
            return
        if k == "poll":
            yield 0.5
            return
        if k == "fence":
            yield from fence.wait()
            return
        if k in ("global_alloc", "local_alloc"):
            yield 1.0
            return
        oid = eff[op.obj]
        info = self.infos[oid]
        if k in ("kv_get", "kv_put", "kv_del", "kv_mget"):
            a = op.args
            if k == "kv_put":
                body_args = (a["key"], a["value"])
            elif k == "kv_mget":
                body_args = tuple(a["keys"])
            else:
                body_args = (a["key"],)
            # Every kv op is a strict round trip (the full runtime's
            # puts fence inside the bucket lock), so a later reader's
            # request timestamp is ordered after this reply.
            if info["home"] == tid:
                yield (t.o_sw_us + _LOCAL_ACCESS_US
                       + _KV_SCAN_US * info["slots"])
                reply = self._kv_exec(oid, k, body_args)
                data = np.asarray(reply, dtype="<i8").tobytes()
                served = _tq(sim.now)
            else:
                data, served = yield from self._request(
                    tid, "skv", (oid, k, body_args), _CTRL_BYTES)
            self.digests[tid] = _mix(
                self.digests[tid], oid[0], oid[1], _fnv(data), served)
            return
        dt = np.dtype(info["dtype"])
        for start, cnt, mode, values in _skeleton_spans(op, info):
            if cnt == 0:
                continue
            if mode == "r":
                if info["home"] == tid:
                    yield t.o_sw_us + _LOCAL_ACCESS_US
                    isz = dt.itemsize
                    data = bytes(self.images[oid][start * isz:
                                                  (start + cnt) * isz])
                    served = _tq(sim.now)
                else:
                    data, served = yield from self._request(
                        tid, "sget", (oid, start, cnt),
                        _CTRL_BYTES)
                self.digests[tid] = _mix(
                    self.digests[tid], oid[0], oid[1], start,
                    _fnv(data), served)
            elif mode in ("w", "s"):
                data = np.asarray(values, dtype=dt).tobytes()
                if info["home"] == tid:
                    yield t.o_sw_us + _LOCAL_ACCESS_US
                    isz = dt.itemsize
                    self.images[oid][start * isz:
                                     start * isz + len(data)] = data
                else:
                    yield t.o_sw_us + t.o_send_us
                    token = fence.issue()
                    self.transmit(tid, info["home"], "sput",
                                  (oid, start, data, tid, token),
                                  len(data) + _CTRL_BYTES)
                    if mode == "s":
                        # Strict PUT completes before the next op.
                        yield from fence.wait()
            else:  # "l" — lock-protected RMW
                if info["home"] == tid:
                    yield t.o_sw_us + _LOCAL_ACCESS_US + _LOCK_LOCAL_US
                    off = start * dt.itemsize
                    img = self.images[oid]
                    old = int(np.frombuffer(
                        bytes(img[off:off + dt.itemsize]), dtype=dt)[0])
                    raw = _wrap_int(old + int(values), dt)
                    img[off:off + dt.itemsize] = np.array(
                        [raw], dtype=dt).tobytes()
                else:
                    _, served = yield from self._request(
                        tid, "sadd", (oid, start, values),
                        _CTRL_BYTES)
                    self.digests[tid] = _mix(
                        self.digests[tid], oid[0], oid[1], start,
                        served)

    def _collective_extra(self, op) -> float:
        m = self.machine
        if op.kind in ("all_reduce", "broadcast"):
            if self.nnodes > 1:
                stages = max(1, int(np.ceil(np.log2(self.nnodes))))
                return stages * (m.wire_base_us + 3 * m.wire_per_hop_us)
            return 0.0
        if op.kind in ("alloc", "alloc_matrix", "kv_create"):
            return 1.0
        if op.kind in ("free", "kv_free"):
            return 0.2
        return 0.0

    def thread(self, tid: int):
        sim = self.sim
        fence = self.fences[tid]
        self.digests[tid] = _FNV_OFFSET
        for pi, ph in enumerate(self.program.phases):
            if ph.is_collective:
                op = ph.collective
                if op.kind in FENCING_KINDS:
                    yield from fence.wait()
                yield from self.barrier(pi)
                extra = self._collective_extra(op)
                if extra:
                    yield extra
                continue
            eff = self.eff[pi]
            for oi, op in enumerate(ph.per_thread[tid]):
                yield from self.exec_op(tid, op, pi, oi, eff, fence)
        self.finish[tid] = _tq(sim.now)


def build_corpus_shard(ctx: ShardContext, program_json: str,
                       machine: str = "gm") -> None:
    """Shard-program builder replaying one fuzz program (one node per
    UPC thread; picklable via the JSON text)."""
    program = Program.loads(program_json)
    m = MACHINES[machine]
    nnodes = program.nthreads
    wire = ShardWire(m, nnodes, ctx)
    cost = dissemination_cost_us(m, nnodes, m.transport)
    shard_barrier = ShardBarrier(ctx, expected=nnodes, cost_us=cost,
                                 entry_us=m.transport.o_sw_us)
    fences = {tid: ShardFence(ctx) for tid in wire.nodes}
    core = _SkeletonCore(
        ctx.sim, m, program, wire,
        barrier=lambda gen: shard_barrier.wait(generation=gen),
        fences=fences)
    for kind in ("sput", "sack", "sget", "sadd", "srep", "skv"):
        ctx.on_message(kind, getattr(core, f"handle_{kind}"))
    for tid in wire.nodes:
        ctx.spawn(core.thread(tid), name=f"skel-t{tid}")
    # Publish the *live* bytearrays — the builder runs before the sim,
    # so taking ``bytes(img)`` here would freeze the zero-initialised
    # images; the merge below copies them after the run completes.
    ctx.publish("mem", {f"{o}:{k}": img
                        for (o, k), img in core.images.items()
                        if (o, k) in core.final_live})
    ctx.publish("kvinfo", {f"{o}:{k}": core.infos[(o, k)]["slots"]
                           for (o, k) in core.final_live
                           if core.infos[(o, k)]["kind"] == "kv"})
    ctx.publish("digests", core.digests)
    ctx.publish("finish", core.finish)


def run_corpus_sharded(program: Program, nshards: int, *,
                       machine: str = "gm", mode: str = "inproc",
                       mp_context=None, trace: bool = False,
                       trace_max_events=None) -> dict:
    """Replay ``program`` under ``nshards`` shards; merged result is
    layout-invariant (``nshards=1`` is the pooled referee — the whole
    run lives on one pooled :class:`Simulator`)."""
    run = run_sharded(build_corpus_shard,
                      dict(program_json=program.dumps(), machine=machine),
                      MACHINES[machine], program.nthreads, nshards,
                      mode=mode, mp_context=mp_context, trace=trace,
                      trace_max_events=trace_max_events)
    mem, kvinfo, digests, finish = {}, {}, {}, {}
    for out in run.outputs:
        mem.update({k: bytes(v) for k, v in out["mem"].items()})
        kvinfo.update(out.get("kvinfo", {}))
        digests.update(out["digests"])
        finish.update(out["finish"])
    return {"mem": mem, "kvinfo": kvinfo, "digests": digests,
            "finish": finish, "now": run.now, "events": run.events,
            "run": run}


def skeleton_kv_dict(image: bytes) -> dict:
    """Decode a skeleton kv image back to a flat ``{key: value}`` dict
    (cell pairs are ``(key_enc, value)``; ``key_enc = 0`` is empty, so
    bucket geometry is irrelevant to the decode)."""
    cells = np.frombuffer(image, dtype=np.uint64)
    return {int(cells[i]) - 1: int(cells[i + 1])
            for i in range(0, len(cells), 2) if int(cells[i]) != 0}
