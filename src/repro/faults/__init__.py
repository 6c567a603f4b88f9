"""Deterministic fault injection and the reliability layer.

The paper's protocols assume a lossless fabric (GM/Myrinet, LAPI/HPS)
and unbounded registration memory.  This package relaxes both:

* :mod:`repro.faults.plan` — a declarative, JSON-round-trippable
  :class:`FaultPlan`: per-link rules (:class:`LinkRule`) whose
  segments give loss/corruption/duplication/delay over time (a static
  fault is one open-ended segment), transient NIC stalls,
  target-handler slowdowns, and injected pin-registration budgets;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that draws
  every fault from a seeded RNG, so any failure is replayable from
  ``(workload seed, fault seed)`` alone;
* :mod:`repro.faults.reliability` — the knobs and data structures of
  the recovery protocols: :class:`ReliabilityConfig` (timeouts, capped
  exponential backoff), the :class:`DedupLedger` that makes retried AM
  handlers idempotent, and :class:`ReliabilityError`;
* :mod:`repro.faults.trace` — seeded degradation shapes (``flap``,
  ``burst``, ``degrade``, ``gray``) built as plans, and the pure
  identity hash the sharded traffic harness draws fates from;
* :mod:`repro.faults.profiles` — named canned plans for CLI/chaos use
  and the one ``--fault-profile`` resolver.

The recovery logic itself lives where the protocols live: sequence
numbers, retries and dedup in :mod:`repro.network.transport`; RDMA
completion timeouts with cache invalidation and AM fallback plus
pin-failure degradation in :mod:`repro.runtime.ops`.

With no plan installed (or an empty one) the runtime takes the exact
pre-fault code paths: zero extra simulator events, bit-identical
virtual time (``tests/faults/test_recovery.py`` holds the bar).
"""

from repro.faults.health import HealthTracker, WindowStats, fold_ewma
from repro.faults.injector import NO_FAULT, Fate, FaultInjector
from repro.faults.plan import (
    ANY_NODE,
    FaultPlan,
    HandlerStall,
    LinkRule,
    NicStall,
    PinBudget,
    TraceSegment,
)
from repro.faults.policy import (
    POLICIES,
    LinkMode,
    PolicyConfig,
    PolicyEngine,
    decisions_digest,
)
from repro.faults.profiles import PROFILES, resolve_profile
from repro.faults.reliability import (
    DedupLedger,
    ReliabilityConfig,
    ReliabilityError,
)
from repro.faults.trace import (
    COMPRESSED_TRACE_KW,
    TRACE_SHAPES,
    fate_hash,
    fate_u01,
    make_trace,
)

__all__ = [
    "ANY_NODE",
    "DedupLedger",
    "Fate",
    "FaultInjector",
    "FaultPlan",
    "HandlerStall",
    "HealthTracker",
    "LinkMode",
    "LinkRule",
    "COMPRESSED_TRACE_KW",
    "NicStall",
    "NO_FAULT",
    "PinBudget",
    "POLICIES",
    "PolicyConfig",
    "PolicyEngine",
    "PROFILES",
    "ReliabilityConfig",
    "ReliabilityError",
    "TRACE_SHAPES",
    "TraceSegment",
    "WindowStats",
    "decisions_digest",
    "fate_hash",
    "fate_u01",
    "fold_ewma",
    "make_trace",
    "resolve_profile",
]
