"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of
*what can go wrong* in a run: per-link conditions (loss, corruption,
duplication, latency inflation — constant or evolving over time), NIC
stalls, handler slowdowns, and injected pin-registration budgets.  It
carries its own seed; *when* each fault actually fires is decided by
the :class:`~repro.faults.injector.FaultInjector` drawing from
``seeded_rng(plan.seed, ...)``, so a plan plus a workload seed replays
the exact same failure sequence — the property that lets a fuzz
counterexample or a chaos-CI failure be attached to a bug report as a
short JSON document.

All times are virtual microseconds.  ``src``/``dst``/``node`` fields
accept :data:`ANY_NODE` (``-1``) as a wildcard; ``t_end`` of ``inf``
means "until the end of the run".
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Optional, Tuple

#: Wildcard for ``src``/``dst``/``node`` rule fields.
ANY_NODE = -1

#: Protocol families a :class:`TraceSegment` applies to.
LINK_SCOPES = ("am", "rdma", "both")

#: A link's composed condition at one instant: ``(loss, corrupt,
#: delay_us, duplicate, jitter)`` — three per-message probabilities, the
#: standing latency inflation, and the probabilistic delays as
#: ``(prob, delay_us)`` pairs.
LinkCondition = Tuple[float, float, float, float, tuple]


def _check_window(t_start: float, t_end: float) -> None:
    if t_start < 0 or t_end < t_start:
        raise ValueError(f"bad time window [{t_start}, {t_end})")


def _check_prob(prob: float) -> None:
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability {prob} outside [0, 1]")


def _compose(conditions: Iterable[LinkCondition]) -> LinkCondition:
    """Fold overlapping link conditions into one: probabilities
    combine as independent events, standing delays add, probabilistic
    delays stay separate draws."""
    loss = corrupt = duplicate = 0.0
    delay = 0.0
    jitter = ()
    for c_loss, c_corrupt, c_delay, c_duplicate, c_jitter in conditions:
        loss = 1.0 - (1.0 - loss) * (1.0 - c_loss)
        corrupt = 1.0 - (1.0 - corrupt) * (1.0 - c_corrupt)
        delay += c_delay
        duplicate = 1.0 - (1.0 - duplicate) * (1.0 - c_duplicate)
        jitter += c_jitter
    return loss, corrupt, delay, duplicate, jitter


@dataclass(frozen=True)
class TraceSegment:
    """One time slice of a link's condition; with the default window
    ``[0, inf)`` it is a static fault.

    ``loss``/``corrupt`` are per-message probabilities (request and
    reply are separate messages; a corrupt frame is detected and
    discarded by the receiver — it behaves like a loss but is accounted
    separately); ``duplicate`` is the probability the request is
    delivered a second time (the dedup ledger must absorb it);
    ``delay_us`` is extra one-way wire latency, paid by every message
    (``delay_prob`` 1.0, a standing inflation) or by that fraction of
    them.  The ``*_end`` fields, when set, linearly interpolate the
    value across the segment (slow-degradation shapes); ``None`` keeps
    it constant.  ``scope`` selects which protocol family the segment
    bites: AM request/reply traffic, one-sided RDMA, or both.
    """

    t_start: float = 0.0
    t_end: float = math.inf
    loss: float = 0.0
    corrupt: float = 0.0
    delay_us: float = 0.0
    loss_end: Optional[float] = None
    corrupt_end: Optional[float] = None
    delay_end_us: Optional[float] = None
    duplicate: float = 0.0
    delay_prob: float = 1.0
    scope: str = "both"

    def __post_init__(self) -> None:
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"bad segment window [{self.t_start}, {self.t_end})")
        for name in ("loss", "corrupt", "loss_end", "corrupt_end",
                     "duplicate", "delay_prob"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        for name in ("delay_us", "delay_end_us"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ValueError(f"{name}={v} must be >= 0")
        if self.scope not in LINK_SCOPES:
            raise ValueError(f"unknown segment scope {self.scope!r}; "
                             f"expected one of {LINK_SCOPES}")

    def _lerp(self, a: float, b: Optional[float], t: float) -> float:
        if b is None or self.t_end == math.inf:
            return a
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        return a + (b - a) * min(max(frac, 0.0), 1.0)

    def at(self, t: float) -> LinkCondition:
        """The segment's condition at instant ``t`` (must lie in its
        window)."""
        loss = self._lerp(self.loss, self.loss_end, t)
        corrupt = self._lerp(self.corrupt, self.corrupt_end, t)
        delay = self._lerp(self.delay_us, self.delay_end_us, t)
        if self.delay_prob == 1.0:
            return loss, corrupt, delay, self.duplicate, ()
        jitter = ((self.delay_prob, delay),) if delay else ()
        return loss, corrupt, 0.0, self.duplicate, jitter

    def active(self, t: float, family: Optional[str] = None) -> bool:
        """In its window at ``t`` and, when a protocol ``family``
        (``"am"``/``"rdma"``) is named, scoped to it."""
        return (self.t_start <= t < self.t_end
                and (family is None or self.scope == "both"
                     or self.scope == family))


@dataclass(frozen=True)
class LinkRule:
    """The condition segments of one (possibly wildcarded) link."""

    src: int = ANY_NODE
    dst: int = ANY_NODE
    segments: Tuple[TraceSegment, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def static(cls, src: int = ANY_NODE, dst: int = ANY_NODE,
               **condition) -> "LinkRule":
        """A static fault: one segment of ``condition``
        (:class:`TraceSegment` fields; open-ended unless it gives a
        window) on the link."""
        return cls(src, dst, (TraceSegment(**condition),))

    def matches(self, src: int, dst: int) -> bool:
        return ((self.src == ANY_NODE or self.src == src)
                and (self.dst == ANY_NODE or self.dst == dst))

    def at(self, t: float, family: Optional[str] = None) -> LinkCondition:
        """Composed condition of this rule's active segments at ``t``."""
        return _compose(seg.at(t) for seg in self.segments
                        if seg.active(t, family))


@dataclass(frozen=True)
class NicStall:
    """Transient NIC brown-out: every injection on ``node`` during the
    window pays an extra ``stall_us`` before touching the wire (DMA
    engine backpressure / firmware hiccup)."""

    stall_us: float
    node: int = ANY_NODE
    prob: float = 1.0
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.stall_us <= 0.0:
            raise ValueError("NIC stall needs a positive stall_us")
        _check_prob(self.prob)
        _check_window(self.t_start, self.t_end)

    def matches(self, node: int, now: float) -> bool:
        return ((self.node == ANY_NODE or self.node == node)
                and self.t_start <= now < self.t_end)


@dataclass(frozen=True)
class HandlerStall:
    """Slow or wedged target: AM handler dispatch on ``node`` pays an
    extra ``stall_us`` during the window (CPU contention on the
    polling core, interrupt storm on the LAPI dispatcher)."""

    stall_us: float
    node: int = ANY_NODE
    prob: float = 1.0
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.stall_us <= 0.0:
            raise ValueError("handler stall needs a positive stall_us")
        _check_prob(self.prob)
        _check_window(self.t_start, self.t_end)

    def matches(self, node: int, now: float) -> bool:
        return ((self.node == ANY_NODE or self.node == node)
                and self.t_start <= now < self.t_end)


@dataclass(frozen=True)
class PinBudget:
    """Injected registration-memory budget: once ``budget_bytes`` of
    pin registrations have been granted on ``node``, further
    ``PinnedAddressTable.register`` calls fail and the affected object
    degrades to the AM path forever.  Tighter than any configured
    ``pin_max_total_bytes``, this exercises exhaustion without needing
    a workload large enough to blow the real limit."""

    budget_bytes: int
    node: int = ANY_NODE

    def __post_init__(self) -> None:
        if self.budget_bytes < 0:
            raise ValueError("pin budget must be >= 0")

    def matches(self, node: int) -> bool:
        return self.node == ANY_NODE or self.node == node


#: rule-list field name -> element class, for JSON (de)serialisation.
_RULE_FIELDS = {
    "links": LinkRule,
    "nic_stalls": NicStall,
    "handler_stalls": HandlerStall,
    "pin_budgets": PinBudget,
}


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus rule lists.  Empty plan == lossless fabric: the
    runtime installs no injector and takes the exact pre-fault paths.
    """

    seed: int = 0
    links: Tuple[LinkRule, ...] = ()
    nic_stalls: Tuple[NicStall, ...] = ()
    handler_stalls: Tuple[HandlerStall, ...] = ()
    pin_budgets: Tuple[PinBudget, ...] = ()
    #: Free-form label (profile name) carried through JSON for reports.
    name: str = ""

    def __post_init__(self) -> None:
        # Tolerate lists from hand-built plans / JSON loading.
        for fname in _RULE_FIELDS:
            val = getattr(self, fname)
            if not isinstance(val, tuple):
                object.__setattr__(self, fname, tuple(val))

    @property
    def empty(self) -> bool:
        return not (self.links or self.nic_stalls
                    or self.handler_stalls or self.pin_budgets)

    def with_seed(self, seed: int) -> "FaultPlan":
        """Same rules, different draw sequence — how the fuzz runner
        derives a per-program plan from one base plan."""
        return replace(self, seed=seed)

    def link_at(self, src: int, dst: int, t: float,
                family: Optional[str] = None) -> LinkCondition:
        """Condition of link ``src -> dst`` at instant ``t``: every
        matching rule's active segments (those scoped to ``family``,
        when one is named), composed."""
        return _compose(rule.at(t, family) for rule in self.links
                        if rule.matches(src, dst))

    def drop_prob(self, src: int, dst: int, t: float) -> float:
        """Probability a message on ``src -> dst`` at ``t`` does not
        arrive intact (loss or detected corruption)."""
        loss, corrupt = self.link_at(src, dst, t)[:2]
        return 1.0 - (1.0 - loss) * (1.0 - corrupt)

    # -- JSON round trip ------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        doc = {"seed": self.seed, "name": self.name}
        for fname in _RULE_FIELDS:
            rules = getattr(self, fname)
            if rules:
                doc[fname] = [_rule_dict(asdict(r)) for r in rules]
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan document.  It arrives from outside the program
        (a CLI flag, a file from a bug report), so every way it can be
        malformed is a ``ValueError`` naming the rule list, index and
        key at fault."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan JSON must be an object")
        unknown = set(doc) - {"seed", "name", *_RULE_FIELDS}
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        kwargs = {"seed": seed, "name": str(doc.get("name", ""))}
        for fname, rule_cls in _RULE_FIELDS.items():
            kwargs[fname] = _rules_from(rule_cls, doc.get(fname, []), fname)
        return cls(**kwargs)


def _rule_dict(d: dict) -> dict:
    # JSON has no inf literal; spell open-ended windows as "inf".  Unset
    # interpolation ends are omitted.
    out = {}
    for k, v in d.items():
        if k == "segments":
            out[k] = [_rule_dict(seg) for seg in v]
        elif v is not None:
            out[k] = "inf" if v == math.inf else v
    return out


def _number(v, where: str):
    if v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where} must be a number, got {v!r}")
    return v


def _rules_from(rule_cls, docs, where: str) -> tuple:
    if not isinstance(docs, list):
        raise ValueError(f"{where} must be a list, got {docs!r}")
    return tuple(_rule_from(rule_cls, d, f"{where}[{i}]")
                 for i, d in enumerate(docs))


def _rule_from(rule_cls, doc, where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    known = [f.name for f in fields(rule_cls)]
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)} "
                         f"(a {rule_cls.__name__} has {known})")
    kwargs = {}
    for key, v in doc.items():
        if key == "segments":
            kwargs[key] = _rules_from(TraceSegment, v, f"{where}.{key}")
        elif key == "scope":        # the segment checks membership
            kwargs[key] = v
        else:
            kwargs[key] = _number(v, f"{where}.{key}")
    try:
        return rule_cls(**kwargs)
    except (TypeError, ValueError) as exc:  # missing field / bad value
        raise ValueError(f"{where}: {exc}") from None
