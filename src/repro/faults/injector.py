"""The fault injector: seeded draws against a :class:`FaultPlan`.

One injector is built per :class:`~repro.runtime.runtime.Runtime` when
a non-empty plan is configured.  Every decision — does this message
drop, does this NIC stall, is this pin granted — is drawn from
``seeded_rng(plan.seed, 0xFA17)`` in simulator order, which is itself
deterministic, so a ``(workload seed, fault plan)`` pair replays the
identical failure sequence.  Each fault that actually fires emits a
``FAULT_INJECT`` flight-recorder event with the causal ``op_id`` and
bumps ``metrics.faults_injected``; a rule that matches but whose
probability draw says "healthy" costs one RNG draw and nothing else.

The injector only *decides*; the transport, progress engines and op
engine consult it and act (pay the delay, lose the message, fail the
pin).  With no injector installed (``faults is None``) those layers
never branch into fault code at all.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan
from repro.obs.events import FAULT_INJECT
from repro.util.rng import seeded_rng

#: RNG stream salt for fault draws (distinct from cache/workload
#: streams so adding faults never perturbs their sequences).
_FAULT_STREAM = 0xFA17


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

    @property
    def healthy(self) -> bool:
        return not (self.drop_request or self.drop_reply or self.duplicate
                    or self.delay_us)

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

    ``sim`` supplies the clock (rule time windows), ``events`` the
    flight recorder (may be None or disabled), ``metrics`` the
    runtime's counter block (may be None for unit tests).
    """

    __slots__ = ("plan", "sim", "events", "metrics", "injected",
                 "_rng", "_pin_granted", "policy", "health")

    def __init__(self, plan: FaultPlan, sim, events=None,
                 metrics=None, policy=None, health=None) -> None:
        self.plan = plan
        self.sim = sim
        self.events = events
        self.metrics = metrics
        #: Faults that actually fired (all kinds).
        self.injected = 0
        self._rng = seeded_rng(plan.seed, _FAULT_STREAM)
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
        self.injected += 1
        if self.metrics is not None:
            self.metrics.faults_injected += 1
        ev = self.events
        if ev is not None and ev.enabled:
            ev.emit(self.sim.now, FAULT_INJECT, op=op_id, node=node,
                    fault=fault, **attrs)

    # -- message fates -------------------------------------------------

    def _link_fate(self, src: int, dst: int, op_id: int,
                   family: str) -> Fate:
        """Draw the fate of one ``family`` (``"am"``/``"rdma"``)
        exchange on link ``src -> dst`` at the current instant.

        The link's active segments compose into one condition first;
        the draws then come in a fixed order — loss (then which leg),
        corruption, duplication, each probabilistic delay.  A link
        detoured by ``disable_and_repair`` no longer crosses the sick
        fabric segment, so none of its rules apply (the wire layer
        charges the two-hop detour latency instead).
        """
        if not self.plan.links:
            return NO_FAULT
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
        rng = self._rng
        if loss and rng.random() < loss:
            # One draw decides the request leg; the reply leg is a
            # separate message and only at risk if the request got
            # through.
            if rng.random() < 0.5:
                fate.drop_request = True
                self._fired("drop_request", op_id, dst, src=src, dst=dst)
            else:
                fate.drop_reply = True
                self._fired("drop_reply", op_id, dst, src=src, dst=dst)
        elif corrupt and rng.random() < corrupt:
            # A corrupt frame is detected and discarded by the
            # receiver: it behaves like a lost request leg but is
            # accounted separately.
            fate.drop_request = True
            self._fired("corrupt", op_id, dst, src=src, dst=dst)
        if duplicate and rng.random() < duplicate:
            fate.duplicate = True
            self._fired("duplicate", op_id, dst, src=src, dst=dst)
        for prob, delay_us in jitter:
            if rng.random() < prob:
                fate.delay_us += delay_us
                self._fired("delay", op_id, dst, src=src, dst=dst,
                            delay_us=delay_us)
        return fate

    def _observe(self, src: int, dst: int, fate: Fate) -> None:
        """Record one attempt's health against the link it rode."""
        dropped = fate.drop_request or fate.drop_reply
        self.health.record(self.sim.now, src, dst, attempts=1,
                           timeouts=1 if dropped else 0,
                           deliveries=0 if dropped else 1)

    def am_fate(self, src: int, dst: int, op_id: int = -1) -> Fate:
        """Fate for one AM request/reply exchange attempt."""
        fate = self._link_fate(src, dst, op_id, "am")
        if self.health is not None:
            self._observe(src, dst, fate)
        return fate

    def rdma_fate(self, src: int, dst: int, op_id: int = -1) -> Fate:
        """Fate for one one-sided RDMA operation.  A loss on either
        leg means the completion never arrives."""
        fate = self._link_fate(src, dst, op_id, "rdma")
        if fate.drop_reply:
            fate.drop_request = True
        if self.health is not None:
            self._observe(src, dst, fate)
        return fate

    # -- node-local stalls ---------------------------------------------

    def nic_stall(self, node: int, op_id: int = -1) -> float:
        """Extra µs this NIC injection pays (0.0 when healthy)."""
        total = 0.0
        now = self.sim.now
        for rule in self.plan.nic_stalls:
            if rule.matches(node, now) and self._rng.random() < rule.prob:
                total += rule.stall_us
                self._fired("nic_stall", op_id, node,
                            stall_us=rule.stall_us)
        return total

    def handler_stall(self, node: int, op_id: int = -1) -> float:
        """Extra µs this AM handler dispatch pays (0.0 when healthy)."""
        total = 0.0
        now = self.sim.now
        for rule in self.plan.handler_stalls:
            if rule.matches(node, now) and self._rng.random() < rule.prob:
                total += rule.stall_us
                self._fired("handler_stall", op_id, node,
                            stall_us=rule.stall_us)
        return total

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
                f"seed={self.plan.seed} injected={self.injected}>")
