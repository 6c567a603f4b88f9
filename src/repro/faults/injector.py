"""The fault injector: identity-hashed draws against a :class:`FaultPlan`.

One injector is built per :class:`~repro.runtime.runtime.Runtime` when
a non-empty plan is configured.  Every draw is a pure function of
identity — ``fate_u01(plan.seed, src, seq, attempt, slot)`` for a
message (``(src, seq)`` the transport's per-node dedup key),
``fate_u01(plan.seed, node, n, rule)`` for the ``n``-th stall check
of a node — never of another node's traffic or of event order, so a
``(workload seed, fault plan)`` pair replays the identical failure
sequence.  Each fault that actually fires emits a ``FAULT_INJECT``
flight-recorder event with the causal ``op_id`` and bumps
``metrics.faults_injected``; a rule that matches but whose draw says
"healthy" costs one hash and nothing else.

The injector only *decides*; the transport, progress engines and op
engine consult it and act (pay the delay, lose the message, fail the
pin).  With no injector installed (``faults is None``) those layers
never branch into fault code at all.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan
from repro.faults.trace import fate_u01
from repro.obs.events import FAULT_INJECT


class Fate:
    """Outcome of the draws for one message (or one RDMA op).

    ``drop_request``/``drop_reply`` lose that leg in the fabric (for
    RDMA, ``drop_request`` means the completion never arrives);
    ``duplicate`` delivers the request a second time; ``delay_us`` is
    extra wire latency added to each surviving leg.
    """

    __slots__ = ("drop_request", "drop_reply", "duplicate", "delay_us")

    def __init__(self, drop_request: bool = False, drop_reply: bool = False,
                 duplicate: bool = False, delay_us: float = 0.0) -> None:
        self.drop_request = drop_request
        self.drop_reply = drop_reply
        self.duplicate = duplicate
        self.delay_us = delay_us

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = [n for n in ("drop_request", "drop_reply", "duplicate")
                if getattr(self, n)]
        if self.delay_us:
            bits.append(f"delay={self.delay_us}us")
        return f"<Fate {' '.join(bits) or 'healthy'}>"


#: Shared healthy fate — used by the transport when no injector is
#: installed so the protocol generators take one code path.
NO_FAULT = Fate()


class FaultInjector:
    """Draws fault decisions for one runtime.

    ``sim`` supplies the clock (rule time windows), ``metrics`` the
    runtime's counter block (its ``faults_injected`` counts every
    fault that fired), ``events`` the flight recorder (may be None or
    disabled).
    """

    __slots__ = ("plan", "sim", "events", "metrics", "_checks",
                 "_pin_granted", "policy", "health")

    def __init__(self, plan: FaultPlan, sim, metrics, events=None,
                 policy=None, health=None) -> None:
        self.plan = plan
        self.sim = sim
        self.events = events
        self.metrics = metrics
        #: (stall kind, node id) -> checks made: the next draw's ``n``.
        self._checks = {}
        #: node id -> pin bytes already granted against the budget.
        self._pin_granted = {}
        #: Optional :class:`~repro.faults.policy.PolicyEngine` — when a
        #: link is detoured by ``disable_and_repair`` its rules stop
        #: applying (the traffic no longer crosses the sick link).
        self.policy = policy
        #: Optional :class:`~repro.faults.health.HealthTracker`; every
        #: fate draw records one attempt against the link it rode.
        self.health = health

    # -- bookkeeping ---------------------------------------------------

    def _fired(self, fault: str, op_id: int, node: int, **attrs) -> None:
        self.metrics.faults_injected += 1
        ev = self.events
        if ev is not None and ev.enabled:
            ev.emit(self.sim.now, FAULT_INJECT, op=op_id, node=node,
                    fault=fault, **attrs)

    # -- message fates -------------------------------------------------

    def _link_fate(self, key, dst: int, attempt: int, op_id: int,
                   family: str) -> Fate:
        """Draw the fate of attempt ``attempt`` of message ``key`` (the
        ``(src, seq)`` dedup key), a ``family`` (``"am"``/``"rdma"``)
        exchange on link ``src -> dst`` at the current instant.

        The link's active segments compose into one condition first;
        each draw then hashes the message's identity with its own slot:
        loss 0 (its leg 1), corruption 2, duplication 3, each delay 4,
        5, ….  A link detoured by ``disable_and_repair`` no longer
        crosses the sick segment, so none of its rules apply (the wire
        layer charges the two-hop detour latency instead).
        """
        if not self.plan.links:
            return NO_FAULT
        src, seq = key
        now = self.sim.now
        if self.policy is not None:
            mode = self.policy.mode_of(src, dst, now)
            if mode.mode == "disabled" and mode.via is not None:
                return NO_FAULT
        loss, corrupt, delay, duplicate, jitter = self.plan.link_at(
            src, dst, now, family)
        if not (loss or corrupt or delay or duplicate or jitter):
            return NO_FAULT
        # A standing delay is the link's condition, not an event: it is
        # paid without a draw and not counted as an injection.
        fate = Fate(delay_us=delay)
        seed = self.plan.seed
        if loss and fate_u01(seed, src, seq, attempt, 0) < loss:
            # One draw decides the request leg; the reply leg is a
            # separate message and only at risk if the request got
            # through.
            if fate_u01(seed, src, seq, attempt, 1) < 0.5:
                fate.drop_request = True
                self._fired("drop_request", op_id, dst, src=src, dst=dst)
            else:
                fate.drop_reply = True
                self._fired("drop_reply", op_id, dst, src=src, dst=dst)
        elif corrupt and fate_u01(seed, src, seq, attempt, 2) < corrupt:
            # A corrupt frame is detected and discarded by the
            # receiver: it behaves like a lost request leg but is
            # accounted separately.
            fate.drop_request = True
            self._fired("corrupt", op_id, dst, src=src, dst=dst)
        if duplicate and fate_u01(seed, src, seq, attempt, 3) < duplicate:
            fate.duplicate = True
            self._fired("duplicate", op_id, dst, src=src, dst=dst)
        for slot, (prob, delay_us) in enumerate(jitter, 4):
            if fate_u01(seed, src, seq, attempt, slot) < prob:
                fate.delay_us += delay_us
                self._fired("delay", op_id, dst, src=src, dst=dst,
                            delay_us=delay_us)
        return fate

    def _observed(self, src: int, dst: int, fate: Fate) -> Fate:
        """Record one attempt's health against the link it rode."""
        if self.health is not None:
            dropped = fate.drop_request or fate.drop_reply
            self.health.record(self.sim.now, src, dst, attempts=1,
                               timeouts=1 if dropped else 0,
                               deliveries=0 if dropped else 1)
        return fate

    def am_fate(self, key, dst: int, attempt: int = 0,
                op_id: int = -1) -> Fate:
        """Fate of attempt ``attempt`` of the AM request/reply exchange
        ``key`` (its ``(src, seq)`` dedup key) toward ``dst``."""
        return self._observed(key[0], dst, self._link_fate(
            key, dst, attempt, op_id, "am"))

    def rdma_fate(self, key, dst: int, op_id: int = -1) -> Fate:
        """Fate of the one-sided RDMA operation ``key`` toward ``dst``.
        A loss on either leg means the completion never arrives."""
        fate = self._link_fate(key, dst, 0, op_id, "rdma")
        if fate.drop_reply:
            fate.drop_request = True
        return self._observed(key[0], dst, fate)

    # -- node-local stalls ---------------------------------------------

    def _stall(self, kind: str, rules, first: int, node: int,
               op_id: int) -> float:
        """Extra µs of one ``kind`` check on ``node``; rule ``i`` of
        ``rules`` draws slot ``first + i`` (the kinds share no slot)."""
        n = self._checks.get((kind, node), 0)
        self._checks[kind, node] = n + 1
        total = 0.0
        for slot, rule in enumerate(rules, first):
            if (rule.matches(node, self.sim.now)
                    and fate_u01(self.plan.seed, node, n, slot) < rule.prob):
                total += rule.stall_us
                self._fired(kind, op_id, node, stall_us=rule.stall_us)
        return total

    def nic_stall(self, node: int, op_id: int = -1) -> float:
        """Extra µs this NIC injection pays (0.0 when healthy)."""
        return self._stall("nic_stall", self.plan.nic_stalls, 0, node, op_id)

    def handler_stall(self, node: int, op_id: int = -1) -> float:
        """Extra µs this AM handler dispatch pays (0.0 when healthy)."""
        plan = self.plan
        return self._stall("handler_stall", plan.handler_stalls,
                           len(plan.nic_stalls), node, op_id)

    # -- pin budget ----------------------------------------------------

    def pin_allowed(self, node: int, nbytes: int,
                    op_id: int = -1) -> bool:
        """Charge ``nbytes`` against the node's injected registration
        budget.  Grants are cumulative; the first denial is permanent
        for the requesting object (the op engine marks it unpinnable).
        """
        budget: Optional[int] = None
        for rule in self.plan.pin_budgets:
            if rule.matches(node):
                budget = (rule.budget_bytes if budget is None
                          else min(budget, rule.budget_bytes))
        if budget is None:
            return True
        spent = self._pin_granted.get(node, 0)
        if spent + nbytes > budget:
            self._fired("pin_deny", op_id, node, nbytes=nbytes,
                        budget_bytes=budget, granted_bytes=spent)
            return False
        self._pin_granted[node] = spent + nbytes
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultInjector plan={self.plan.name or 'custom'} "
                f"seed={self.plan.seed} "
                f"injected={self.metrics.faults_injected}>")
