"""Transport protocols: active messages and one-sided RDMA.

The methods here are *generators* meant to be driven inside the
calling process (``yield from transport.default_get(...)``); they
charge every cost of the protocol on the virtual clock, in order, and
return timing-free metadata: a GET the handler's reply payload, a PUT
the event that fires when the bytes are applied at the target.
Actual data movement is performed by the runtime once the protocol
generator returns, so a transport never sees user bytes.

The transport keeps no traffic account of its own: what crossed the
wire is read off the flight recorder (``events``), the runtime's
metrics block (``metrics``) and the dedup ledger (``ledger``).

Two protocol families, mirroring Figures 3 and 5:

* the **default (AM) path** — Figure 3a / Figure 5: a request message
  triggers a *header handler* on the target CPU (via the node's
  progress engine) which performs SVD translation, optionally pins the
  object and piggybacks its base address on the reply;
* the **RDMA path** — Figure 3b: the initiator already knows the
  remote address; the transfer is executed by the NICs alone, with no
  target-CPU involvement.

Eager transfers (≤ ``eager_max_bytes``) pay bounce-buffer copies at
both ends; larger ones use a rendezvous handshake with registration
embedded in the protocol phases and a pin-down cache softening the
cost (section 3.3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.faults.injector import NO_FAULT, Fate
from repro.faults.reliability import (
    DedupLedger,
    ReliabilityConfig,
    ReliabilityError,
)
from repro.network.node import Node
from repro.network.params import TransportParams
from repro.network.progress import make_progress
from repro.network.topology import Topology
from repro.obs.events import (
    AM_RECV,
    AM_REPLY_RECV,
    AM_REPLY_SEND,
    AM_SEND,
    COMP_HANDLER,
    COMP_PIGGYBACK,
    COMP_QUEUE,
    COMP_WIRE,
    HANDLER_BEGIN,
    HANDLER_END,
    PHASE,
    RDMA_COMPLETE,
    RDMA_ISSUE,
    RETRY,
    TIMEOUT,
    EventLog,
)
from repro.sim.event import Event
from repro.sim.simulator import Simulator

#: A target-side AM header handler.  Runs at handler-service time on
#: the target node; must be fast and synchronous.  Returns
#: ``(cpu_cost_us, reply_payload, extra_reply_bytes)``.
Handler = Callable[[Node], Tuple[float, Any, int]]


class Transport:
    """One messaging fabric shared by all nodes of a cluster."""

    def __init__(self, sim: Simulator, params: TransportParams,
                 topology: Topology, nodes: List[Node]) -> None:
        self.sim = sim
        self.params = params
        self.topology = topology
        self.rows = topology.rows      # latency by [src][dst]
        self.nodes = nodes
        #: Flight recorder (injected by the Runtime); off on bare
        #: clusters.  Every emit site guards on ``enabled``.
        self.events = EventLog(enabled=False)
        #: Fault injector (installed by the Runtime when a non-empty
        #: FaultPlan is configured).  None == lossless fabric: every
        #: protocol's attempt loop runs once under ``NO_FAULT``.
        self.faults = None
        #: Reliability knobs; replaced wholesale by the Runtime when
        #: configured.  Only consulted on fault paths.
        self.reliability = ReliabilityConfig()
        #: Target-side dedup ledger for replayed AM requests.
        self.ledger = DedupLedger(self.reliability.ledger_capacity)
        #: Runtime metrics block (injected); None on bare clusters.
        self.metrics = None
        #: Per-link health tracker (injected with a fault plan);
        #: None == no health accounting on the hot path.
        self.health = None
        #: Repair-policy engine (injected); None == static fabric.
        #: Consulted for per-link retransmit knobs and detours.
        self.policy = None
        for node in nodes:
            node.progress = make_progress(sim, node, params)

    def _seq(self, src: Node) -> Tuple[int, int]:
        """Allocate the dedup and fate key of one logical message (AM
        request or RDMA op) under a fault plan: the ``(initiator node,
        its sequence number)`` pair every attempt carries."""
        src.last_seq += 1
        return (src.id, src.last_seq)

    # -- observability -------------------------------------------------

    def _phase(self, op_id: int, comp: str, t0: float,
               dur: Optional[float] = None) -> None:
        """Attribute ``now - t0`` (or an explicit ``dur``) of op
        ``op_id``'s critical path to latency component ``comp``.  The
        caller tests ``events.enabled`` first: a recorder that is off
        costs a test, not a call."""
        if op_id < 0:
            return
        if dur is None:
            dur = self.sim.now - t0
        if dur > 0.0:
            self.events.emit(self.sim.now, PHASE, op=op_id, comp=comp,
                             dur=dur)

    # -- reliability building blocks --------------------------------------

    def _await_timeout(self, t0: float, timeout_us: float, op_id: int,
                       src: Node, dst: Node, proto: str,
                       attempt: int = 0):
        """The initiator's retransmit (or RDMA completion) timer: wait
        out the remainder of the window opened at ``t0``, then record
        the expiry against the ``(src, dst)`` link."""
        if self.policy is not None:
            timeout_us *= self.policy.mode_of(src.id, dst.id,
                                              self.sim.now).timeout_scale
        rest = timeout_us - (self.sim.now - t0)
        if rest > 0:
            yield rest
        if self.metrics is not None:
            self.metrics.timeouts += 1
        ev = self.events
        if ev.enabled:
            ev.emit(self.sim.now, TIMEOUT, op=op_id, node=src.id,
                    dst=dst.id, proto=proto, timeout_us=timeout_us,
                    attempt=attempt)

    def _backoff(self, attempt: int, op_id: int, src: Node, dst: Node,
                 what: str):
        """Capped exponential backoff before retransmission number
        ``attempt`` (1-based); raises :class:`ReliabilityError` once
        the retry budget is spent."""
        r = self.reliability
        if attempt > r.max_retries:
            raise ReliabilityError(
                f"{what} {src.id}->{dst.id} gave up after "
                f"{r.max_retries} retries (op {op_id})",
                src=src.id, dst=dst.id, attempts=attempt, op_id=op_id)
        delay = r.backoff_us(attempt - 1)
        if self.policy is not None:
            delay *= self.policy.mode_of(src.id, dst.id,
                                         self.sim.now).backoff_scale
        if delay > 0:
            yield delay
        if self.metrics is not None:
            self.metrics.retries += 1
        if self.health is not None:
            self.health.record(self.sim.now, src.id, dst.id, retries=1)
        ev = self.events
        if ev.enabled:
            ev.emit(self.sim.now, RETRY, op=op_id, node=src.id,
                    dst=dst.id, attempt=attempt, backoff_us=delay,
                    what=what)

    def _lost(self, t0: float, attempt: int, op_id: int, src: Node,
              dst: Node, what: str):
        """Attempt number ``attempt`` (1-based) of an AM exchange lost
        a leg: burn the rest of the retransmit window opened at ``t0``,
        then back off before the caller's loop goes round again."""
        yield from self._await_timeout(t0, self.reliability.am_timeout_us,
                                       op_id, src, dst, "am",
                                       attempt=attempt)
        yield from self._backoff(attempt, op_id, src, dst, what)

    # -- building blocks -------------------------------------------------

    def _inject(self, node: Node, nbytes: int, fragmented: bool):
        """Occupy ``node``'s NIC while serializing ``nbytes``."""
        p = self.params
        # TransportParams.fragments and .wire_time, read inline.
        frags = max(1, -(-nbytes // p.frag_bytes)) if fragmented else 1
        nic = node.nic
        if not nic.acquire_now():
            yield nic
        try:
            if self.faults is not None:
                stall = self.faults.nic_stall(node.id)
                if stall > 0.0:
                    yield stall
            yield frags * p.nic_gap_us + nbytes * p.byte_time_us
        finally:
            nic.release()

    def _wire(self, src: Node, dst: Node, extra: float = 0.0) -> float:
        """Pure latency of the fabric between two nodes, plus ``extra``;
        the caller waits it out when it is positive (a zero-latency hop
        schedules nothing).

        A link the repair policy took out of service routes via the
        detour next-hop instead — two healthy hops replace the one
        sick one."""
        via = None
        if self.policy is not None:
            mode = self.policy.mode_of(src.id, dst.id, self.sim.now)
            if mode.mode == "disabled":
                via = mode.via
        if via is not None:
            return (self.topology.latency(src.id, via)
                    + self.topology.latency(via, dst.id) + extra)
        return (self.rows[src.id] or self.topology.row(src.id))[dst.id] + extra

    def _arrive(self, src: Node, dst: Node, fate: Fate,
                handler: Optional[Handler], copy_bytes: int = 0,
                reply_bytes: int = 0, reply_to: Optional[Node] = None,
                op_id: int = -1, key: Optional[Tuple[int, int]] = None,
                t_sent: Optional[float] = None, serve: bool = True):
        """One AM message lands on ``dst``: the inbound hop (charged to
        the wire phase from ``t_sent`` when given), then, if ``serve``,
        the wait for service and the header handler on the target CPU.
        A message the target NIC delivers on its own (a rendezvous data
        leg) arrives with ``serve`` False.

        Figure 5: the header handler performs the SVD translation,
        registration, copies *and sends the reply* — all of it target
        CPU work.  ``reply_bytes`` > 0 injects the reply while the CPU
        is held, which is what makes a busy target a bottleneck for
        everyone ("four threads competing for the same network
        device", section 4.6).

        Returns the handler's reply payload and the extra bytes it
        appended to the reply.

        ``key`` is the request's dedup identity (reliability layer):
        the first delivery records the handler's reply in the ledger;
        a replayed delivery — retransmission after a lost reply, or an
        injected duplicate — answers from the ledger without re-running
        the handler, so pins, SVD charges and piggybacks never
        double-apply.  A message ``fate`` duplicates lands once more as
        its own process under ``NO_FAULT``: same hop, same ``serve``, no
        handler, no reply.
        """
        rec = self.events.enabled
        lat = self._wire(src, dst, fate.delay_us)
        if lat > 0:
            yield lat
        if rec and t_sent is not None:
            self._phase(op_id, COMP_WIRE, t_sent)
        payload: Any = None
        extra_bytes = 0
        if serve:
            p = self.params
            assert dst.progress is not None
            yield from dst.progress.service(op_id)
            t_acq = self.sim.now
            if reply_bytes and reply_to is not None:
                # Eager payload toward the initiator: reserve one of its
                # receive-buffer credits *before* taking the handler CPU.
                # Credits are released by main threads (the initiator's
                # receive path), so the handler CPU never blocks on a
                # resource whose release needs another handler CPU — the
                # ordering that would otherwise deadlock two busy nodes
                # exchanging eager traffic.
                credits = reply_to.credits
                if not credits.acquire_now():
                    yield credits
            if not dst.handler_cpu.acquire_now():
                yield dst.handler_cpu
            if rec:
                # Credit + handler-CPU contention is queueing, same bucket
                # as waiting for the progress engine.
                self._phase(op_id, COMP_QUEUE, t_acq)
                self.events.emit(self.sim.now, AM_RECV, op=op_id,
                                 node=dst.id)
            try:
                cost = p.handler_cpu_us
                led = self.ledger.get(key) if key is not None else None
                if led is not None:
                    # Replay of a request served once already: answer from
                    # the ledger (copy cost to rematerialize the reply, no
                    # handler re-run, no double pin).
                    payload, extra_bytes = led
                elif handler is not None:
                    h_cost, payload, extra_bytes = handler(dst)
                    cost += h_cost
                if copy_bytes:
                    cost += copy_bytes * p.memcpy_byte_us
                if led is None and key is not None and handler is not None:
                    self.ledger.record(key, payload, extra_bytes)
                t_h = self.sim.now
                if rec:
                    self.events.emit(t_h, HANDLER_BEGIN, op=op_id,
                                     node=dst.id)
                yield cost
                if rec:
                    self.events.emit(self.sim.now, HANDLER_END, op=op_id,
                                     node=dst.id, cost=cost)
                    self._phase(op_id, COMP_HANDLER, t_h)
                if reply_bytes:
                    t_r = self.sim.now
                    yield p.o_send_us
                    yield from self._inject(dst, reply_bytes + extra_bytes,
                                            fragmented=True)
                    if rec:
                        # The reply injection carried data plus (maybe) the
                        # piggybacked base address; attribute the extra
                        # bytes' share of the send to the piggyback
                        # component, the rest to the wire.
                        dur = self.sim.now - t_r
                        total = reply_bytes + extra_bytes
                        piggy = (dur * extra_bytes / total
                                 if extra_bytes and total else 0.0)
                        self._phase(op_id, COMP_PIGGYBACK, t_r, dur=piggy)
                        self._phase(op_id, COMP_WIRE, t_r, dur=dur - piggy)
                        self.events.emit(
                            self.sim.now, AM_REPLY_SEND, op=op_id,
                            node=dst.id, nbytes=total,
                            piggyback=bool(extra_bytes))
            except BaseException:
                if reply_bytes and reply_to is not None:
                    # The reply will never be sent; return the credit.
                    reply_to.credits.release()
                raise
            finally:
                dst.handler_cpu.release()
        if fate.duplicate:
            self.sim.spawn(self._arrive(src, dst, NO_FAULT, None,
                                        copy_bytes, op_id=op_id,
                                        key=key, serve=serve),
                           name="dup-delivery")
        return payload, extra_bytes

    # -- default (AM) protocols -------------------------------------------

    def default_get(self, src: Node, dst: Node, nbytes: int,
                    handler: Optional[Handler] = None,
                    src_addr: Optional[int] = None,
                    dst_addr: Optional[int] = None, op_id: int = -1):
        """Figure 3a: Request-To-Send, handler on target, data reply.

        ``src_addr``/``dst_addr`` identify the user buffers for
        rendezvous registration accounting (default: node heap base).
        ``op_id`` threads the flight-recorder causal id through the
        protocol.  Returns the handler's reply payload (the runtime
        piggybacks the remote base address here).
        """
        p = self.params
        src_addr = src_addr if src_addr is not None else src.memory.base
        dst_addr = dst_addr if dst_addr is not None else dst.memory.base
        # Sequence-numbered request with retransmission: one fate per
        # attempt; a lost leg burns the retransmit window, then the
        # request is retried after capped exponential backoff.  The
        # dedup key makes retried target handlers idempotent.
        faults = self.faults
        key = self._seq(src) if faults is not None else None
        rec = self.events.enabled
        attempt = 0
        while True:
            t0 = self.sim.now
            fate = (NO_FAULT if faults is None
                    else faults.am_fate(key, dst.id, attempt, op_id))
            if nbytes <= p.eager_max_bytes:
                # One eager attempt, inline: a lost leg leaves ``ok``
                # False and the loop below owns the retransmit timer.
                # Request.
                yield p.o_send_us
                t1 = self.sim.now
                if rec:
                    self.events.emit(t1, AM_SEND, op=op_id, node=src.id,
                                     dst=dst.id, nbytes=p.ctrl_bytes)
                yield from self._inject(src, p.ctrl_bytes, fragmented=False)
                # A dropped request is lost in the fabric after leaving
                # the NIC; the target never sees it.
                ok = not fate.drop_request
                if ok:
                    # Target: handler + bounce copy + reply injection,
                    # all on the target CPU (Figure 5).
                    payload, extra = yield from self._arrive(
                        src, dst, fate, handler, copy_bytes=nbytes,
                        reply_bytes=nbytes + p.ctrl_bytes, reply_to=src,
                        op_id=op_id, key=key, t_sent=t1)
                    ok = not fate.drop_reply
                    if not ok:
                        # The reply vanished; the initiator's receive
                        # path never runs, so return its receive-buffer
                        # credit here.
                        src.credits.release()
                if ok:
                    t1 = self.sim.now
                    lat = self._wire(dst, src, fate.delay_us)
                    if lat > 0:
                        yield lat
                    if rec:
                        self._phase(op_id, COMP_WIRE, t1)
                        self.events.emit(self.sim.now, AM_REPLY_RECV,
                                         op=op_id, node=src.id,
                                         piggyback=extra > 0)
                    # Initiator: receive + copy out of the bounce
                    # buffer, then return the receive-buffer credit.
                    yield p.o_recv_us + nbytes * p.memcpy_byte_us
                    src.credits.release()
            else:
                # Rendezvous: the initiator's RTS prologue is paid per
                # attempt; on retries the source-side registration
                # re-check hits the pin-down cache (cost 0).
                yield p.o_send_us + p.rendezvous_cpu_us
                reg_cost = src.pins.register_lazy(src_addr, nbytes)
                if reg_cost:
                    yield reg_cost
                ok, payload = yield from self._rts_round(
                    src, dst, nbytes, handler, dst_addr, op_id, fate,
                    key, data=True)
            if ok:
                break
            attempt += 1
            yield from self._lost(t0, attempt, op_id, src, dst, "am get")
        return payload

    def _rts_round(self, src: Node, dst: Node, nbytes: int,
                   handler: Optional[Handler], dst_addr: int, op_id: int,
                   fate: Fate, key: Optional[Tuple[int, int]],
                   data: bool):
        """One rendezvous round trip, RTS out and the target's answer
        back: the zero-copy data message carrying the handler's payload
        and piggyback (``data=True``, GET) or a bare CTS (``data=False``,
        PUT).  Returns ``(ok, payload)``; ``ok`` is False when ``fate``
        lost a leg (the caller owns the retransmit timer).  A replayed
        delivery answers from the dedup ledger."""
        p = self.params
        rec = self.events.enabled
        t0 = self.sim.now
        if rec:
            self.events.emit(t0, AM_SEND, op=op_id, node=src.id,
                             dst=dst.id, nbytes=p.ctrl_bytes)
        yield from self._inject(src, p.ctrl_bytes, fragmented=False)
        if fate.drop_request:
            return False, None
        lat = self._wire(src, dst, fate.delay_us)
        if lat > 0:
            yield lat
        if rec:
            self._phase(op_id, COMP_WIRE, t0)
        # Target: handler, registration of the served region and the
        # answer's send — all target-CPU work (Figure 5b), serialized
        # on the handler CPU.
        assert dst.progress is not None
        yield from dst.progress.service(op_id)
        t_acq = self.sim.now
        if not dst.handler_cpu.acquire_now():
            yield dst.handler_cpu
        if rec:
            self._phase(op_id, COMP_QUEUE, t_acq)
            self.events.emit(self.sim.now, AM_RECV, op=op_id,
                             node=dst.id)
        try:
            payload: Any = None
            extra = 0
            cost = p.handler_cpu_us
            led = self.ledger.get(key) if key is not None else None
            if led is not None:
                # Replay: the translation/registration happened on the
                # first delivery; only re-dispatch and re-send.
                payload, extra = led
            else:
                if data:
                    cost += p.rendezvous_cpu_us
                if handler is not None:
                    h_cost, payload, extra = handler(dst)
                    cost += h_cost
                    if not data:
                        # A CTS carries no reply payload or piggyback.
                        payload, extra = None, 0
                cost += dst.pins.register_lazy(dst_addr, nbytes)
                if key is not None and handler is not None:
                    self.ledger.record(key, payload, extra)
            reply_bytes = p.ctrl_bytes + extra
            if data:
                reply_bytes += nbytes
            t_r = self.sim.now
            if rec:
                # The handler-CPU slice is the known `cost` share of
                # the combined timeout below; HANDLER_END is stamped
                # analytically at t_r + cost to avoid splitting the
                # timeout (which would perturb event interleaving).
                self.events.emit(t_r, HANDLER_BEGIN, op=op_id,
                                 node=dst.id)
                self.events.emit(t_r + cost, HANDLER_END, op=op_id,
                                 node=dst.id, cost=cost)
                self._phase(op_id, COMP_HANDLER, t_r, dur=cost)
            yield cost + p.o_send_us
            yield from self._inject(dst, reply_bytes, fragmented=False)
            if rec:
                dur = self.sim.now - t_r - cost
                piggy = (dur * extra / reply_bytes
                         if extra and reply_bytes else 0.0)
                self._phase(op_id, COMP_PIGGYBACK, t_r, dur=piggy)
                self._phase(op_id, COMP_WIRE, t_r, dur=dur - piggy)
                if data:
                    self.events.emit(self.sim.now, AM_REPLY_SEND,
                                     op=op_id, node=dst.id,
                                     nbytes=reply_bytes,
                                     piggyback=bool(extra))
        finally:
            dst.handler_cpu.release()
        if fate.duplicate:
            self.sim.spawn(self._arrive(src, dst, NO_FAULT, None,
                                        op_id=op_id, key=key),
                           name="dup-delivery")
        if fate.drop_reply:
            # The answer vanished (the target paid for sending it);
            # the initiator's retransmit timer will fire.
            return False, None
        t1 = self.sim.now
        lat = self._wire(dst, src, fate.delay_us)
        if lat > 0:
            yield lat
        if rec:
            self._phase(op_id, COMP_WIRE, t1)
            if data:
                self.events.emit(self.sim.now, AM_REPLY_RECV, op=op_id,
                                 node=src.id, piggyback=extra > 0)
        # Initiator completion (no copies: the NIC delivered in place).
        yield p.o_recv_us
        return True, payload

    def default_put(self, src: Node, dst: Node, nbytes: int,
                    handler: Optional[Handler] = None,
                    src_addr: Optional[int] = None,
                    dst_addr: Optional[int] = None, op_id: int = -1):
        """Figure 3a mirrored: the initiator is done at local hand-off;
        target-side processing overlaps with whatever the initiator
        does next.  Returns the event that fires when the bytes are
        applied at the target (fences and barriers wait on it)."""
        p = self.params
        rec = self.events.enabled
        remote_applied = Event(self.sim, name="put-applied")
        if src_addr is None:
            src_addr = src.memory.base
        if dst_addr is None:
            dst_addr = dst.memory.base
        key = self._seq(src) if self.faults is not None else None
        if nbytes <= p.eager_max_bytes:
            # Local side: software overhead, bounce copy, a receive
            # credit at the destination, injection.
            yield p.o_send_us + nbytes * p.memcpy_byte_us
            if not dst.credits.acquire_now():
                yield dst.credits
            t0 = self.sim.now
            if rec:
                self.events.emit(t0, AM_SEND, op=op_id, node=src.id,
                                 dst=dst.id,
                                 nbytes=nbytes + p.ctrl_bytes)
            yield from self._inject(src, nbytes + p.ctrl_bytes,
                                    fragmented=True)
            if rec:
                self._phase(op_id, COMP_WIRE, t0)
            # Remote side continues without the initiator.
            self.sim.spawn(
                self._put_tail(src, dst, nbytes, handler, remote_applied,
                               eager=True, op_id=op_id, key=key),
                name="put-tail",
            )
        else:
            # RTS/CTS handshake happens synchronously (rendezvous).
            yield p.o_send_us + p.rendezvous_cpu_us
            reg_cost = src.pins.register_lazy(src_addr, nbytes)
            if reg_cost:
                yield reg_cost
            attempt = 0
            while True:
                t0 = self.sim.now
                fate = (NO_FAULT if self.faults is None else
                        self.faults.am_fate(key, dst.id, attempt, op_id))
                ok, _ = yield from self._rts_round(
                    src, dst, nbytes, handler, dst_addr, op_id, fate,
                    key, data=False)
                if ok:
                    break
                attempt += 1
                yield from self._lost(t0, attempt, op_id, src, dst,
                                      "rendezvous put")
            # Zero-copy data injection; local completion at hand-off.
            t2 = self.sim.now
            yield from self._inject(src, nbytes, fragmented=False)
            if rec:
                self._phase(op_id, COMP_WIRE, t2)
            data_key = self._seq(src) if self.faults is not None else None
            self.sim.spawn(
                self._put_tail(src, dst, nbytes, None, remote_applied,
                               eager=False, op_id=op_id, key=data_key),
                name="put-tail",
            )
        return remote_applied

    def _put_tail(self, src: Node, dst: Node, nbytes: int,
                  handler: Optional[Handler], remote_applied: Event,
                  eager: bool, op_id: int = -1,
                  key: Optional[Tuple[int, int]] = None):
        """Target-side continuation of a PUT (runs as its own process):
        an ``eager`` message holds a receive credit at ``dst`` and is
        copied out of the bounce buffer by the handler CPU, a rendezvous
        data leg is placed by the target NIC alone.

        Credit return and completion signalling are exception-safe: a
        crashing handler must not leak the receive buffer nor leave
        the initiator's fence waiting forever.  The tail models both
        the delivery and the initiator's retransmit timer for the data
        message, so a dropped one is retried until it lands (the dedup
        ledger absorbs duplicates on the target) and a fence can never
        wait on a message nobody will resend.  If the retry budget runs
        out or the handler raises, ``remote_applied`` is *failed* with
        that exception: the store is never applied and the next fence
        raises it.
        """
        failure: Optional[BaseException] = None
        copy_bytes = nbytes if eager else 0
        try:
            attempt = 0
            while True:
                t0 = self.sim.now
                fate = (NO_FAULT if self.faults is None else
                        self.faults.am_fate(key, dst.id, attempt, op_id))
                if not (fate.drop_request or fate.drop_reply):
                    yield from self._arrive(src, dst, fate, handler,
                                            copy_bytes, op_id=op_id,
                                            key=key, serve=eager)
                    break
                # The data message was lost (a one-way message: either
                # drop leg kills it); wait out the retransmit window,
                # back off, and serialize it through the initiator's
                # NIC again.
                attempt += 1
                yield from self._lost(t0, attempt, op_id, src, dst,
                                      "put data")
                yield from self._inject(
                    src, nbytes + self.params.ctrl_bytes, fragmented=True)
        except Exception as exc:
            failure = exc
            raise
        finally:
            if eager:
                # The target consumed the eager buffer either way.
                dst.credits.release()
            if failure is not None:
                remote_applied.fail(failure)
            else:
                remote_applied.succeed(self.sim.now)

    def am_oneway(self, src: Node, dst: Node, nbytes: int,
                  handler: Optional[Handler] = None) -> Event:
        """Fire-and-forget control message (SVD update notifications).

        Charged asynchronously: the *caller* pays nothing on its own
        clock; returns an event firing when the target processed it.
        A lost message is retransmitted like any AM request — an SVD
        update notification must eventually land or the run must fail
        loudly: once the retry budget is spent (or the handler raises)
        the event is *failed* with that exception.
        """
        done = Event(self.sim, name="oneway-done")

        def _fly():
            failure: Optional[BaseException] = None
            yield self.params.o_send_us
            if not dst.credits.acquire_now():
                yield dst.credits
            try:
                key = self._seq(src) if self.faults is not None else None
                attempt = 0
                while True:
                    t0 = self.sim.now
                    fate = (NO_FAULT if self.faults is None else
                            self.faults.am_fate(key, dst.id, attempt))
                    yield from self._inject(src, nbytes, fragmented=True)
                    if not (fate.drop_request or fate.drop_reply):
                        yield from self._arrive(src, dst, fate, handler,
                                                key=key)
                        break
                    attempt += 1
                    yield from self._lost(t0, attempt, -1, src, dst,
                                          "am oneway")
            except Exception as exc:
                failure = exc
                raise
            finally:
                dst.credits.release()
                if failure is not None:
                    done.fail(failure)
                else:
                    done.succeed(self.sim.now)

        self.sim.spawn(_fly(), name="am-oneway")
        return done

    # -- RDMA protocols ----------------------------------------------------

    def rdma_get(self, src: Node, dst: Node, nbytes: int,
                 op_id: int = -1):
        """Figure 3b: one-sided read.  No target CPU involvement — the
        response is served by the target NIC's DMA engine.

        Returns True on completion; False when the fault plane lost
        the op and the completion timer expired (the caller — the op
        engine — invalidates the cached address and degrades to the
        AM path)."""
        p = self.params
        rec = self.events.enabled
        fate = (self.faults.rdma_fate(self._seq(src), dst.id, op_id)
                if self.faults is not None else NO_FAULT)
        t_start = self.sim.now
        yield p.rdma_init_us
        t0 = self.sim.now
        if rec:
            self.events.emit(t0, RDMA_ISSUE, op=op_id, node=src.id,
                             dst=dst.id, nbytes=nbytes)
        yield from self._inject(src, p.ctrl_bytes, fragmented=False)
        if fate.drop_request:
            # The read (or its response) vanished; no completion will
            # ever arrive — burn the completion window and report.
            yield from self._await_timeout(
                t_start, self.reliability.rdma_timeout_us, op_id,
                src, dst, "rdma", attempt=1)
            return False
        lat = self._wire(src, dst, p.rdma_get_premium_us + fate.delay_us)
        if lat > 0:
            yield lat
        if rec:
            self._phase(op_id, COMP_WIRE, t0)
        # Target NIC serializes the response (DMA, no CPU, no credits
        # — the data lands directly in registered user memory).
        t1 = self.sim.now
        if not dst.nic.acquire_now():
            yield dst.nic
        if rec:
            # Contention for the target NIC's DMA engine.
            self._phase(op_id, COMP_QUEUE, t1)
        t2 = self.sim.now
        try:
            yield p.nic_gap_us + nbytes * p.byte_time_us
        finally:
            dst.nic.release()
        lat = self._wire(dst, src)
        if lat > 0:
            yield lat
        if rec:
            self._phase(op_id, COMP_WIRE, t2)
        yield p.rdma_completion_us
        if rec:
            self.events.emit(self.sim.now, RDMA_COMPLETE, op=op_id,
                             node=src.id, nbytes=nbytes)
        return True

    def rdma_put(self, src: Node, dst: Node, nbytes: int,
                 op_id: int = -1):
        """Figure 3b mirrored.  On GM local completion happens at
        injection; on HPS/LAPI the initiator waits for the fabric-level
        acknowledgement (``rdma_put_waits_remote``) — the mechanism
        behind Figure 6's PUT regression.

        Returns the event that fires when the bytes are applied at the
        target, or None when the fault plane lost the write and the
        completion timer expired (the caller invalidates the cached
        address and degrades to the AM path, which re-issues the
        store)."""
        p = self.params
        rec = self.events.enabled
        fate = (self.faults.rdma_fate(self._seq(src), dst.id, op_id)
                if self.faults is not None else NO_FAULT)
        t_start = self.sim.now
        remote_applied = Event(self.sim, name="rdma-put-applied")
        yield p.rdma_init_us
        t0 = self.sim.now
        if rec:
            self.events.emit(t0, RDMA_ISSUE, op=op_id, node=src.id,
                             dst=dst.id, nbytes=nbytes)
        yield from self._inject(src, nbytes + p.ctrl_bytes, fragmented=False)
        if rec:
            self._phase(op_id, COMP_WIRE, t0)
        if fate.drop_request:
            yield from self._await_timeout(
                t_start, self.reliability.rdma_timeout_us, op_id,
                src, dst, "rdma", attempt=1)
            return None
        if p.rdma_put_waits_remote:
            t1 = self.sim.now
            lat = self._wire(src, dst,
                             p.rdma_put_premium_us + fate.delay_us)
            if lat > 0:
                yield lat
            remote_applied.succeed(self.sim.now)
            lat = self._wire(dst, src)  # hardware ack
            if lat > 0:
                yield lat
            if rec:
                self._phase(op_id, COMP_WIRE, t1)
            yield p.rdma_completion_us
        else:
            yield p.rdma_completion_us

            def _tail():
                lat = self._wire(src, dst,
                                 p.rdma_put_premium_us + fate.delay_us)
                if lat > 0:
                    yield lat
                remote_applied.succeed(self.sim.now)

            self.sim.spawn(_tail(), name="rdma-put-tail")
        if rec:
            self.events.emit(self.sim.now, RDMA_COMPLETE, op=op_id,
                             node=src.id, nbytes=nbytes)
        return remote_applied

