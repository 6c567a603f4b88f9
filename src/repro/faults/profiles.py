"""Named fault profiles for the CLI, CI chaos job, and fuzz runner.

A profile is just a :class:`FaultPlan` under a stable name — a canned
static plan from :data:`PROFILES` or a seeded degradation shape from
:data:`~repro.faults.trace.TRACE_SHAPES`; ``--fault-profile chaos
--fault-seed 7`` reproduces the exact run anywhere.
``resolve_profile`` also accepts inline JSON or a path to a plan file,
so a failing plan attached to a bug report replays with the same flag.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.faults.plan import FaultPlan, HandlerStall, LinkRule, \
    NicStall, PinBudget
from repro.faults.trace import TRACE_SHAPES, make_trace


#: Registry of canned plans (seed 0; override with ``--fault-seed``).
PROFILES: Dict[str, FaultPlan] = {
    # Lossy fabric: ~5% of messages vanish, AM and RDMA alike.
    "drop": FaultPlan(
        name="drop",
        links=(LinkRule.static(loss=0.05),),
    ),
    # At-least-once fabric: ~5% of AM requests delivered twice.
    "dup": FaultPlan(
        name="dup",
        links=(LinkRule.static(duplicate=0.05, scope="am"),),
    ),
    # Congested fabric: ~20% of messages pay 25 µs extra latency.
    "delay": FaultPlan(
        name="delay",
        links=(LinkRule.static(delay_us=25.0, delay_prob=0.2),),
    ),
    # Wedged targets: handler dispatch and NIC injections stall.
    "stall": FaultPlan(
        name="stall",
        nic_stalls=(NicStall(stall_us=15.0, prob=0.1),),
        handler_stalls=(HandlerStall(stall_us=30.0, prob=0.1),),
    ),
    # Registration memory runs out after 16 KiB of pins per node.
    "pin": FaultPlan(
        name="pin",
        pin_budgets=(PinBudget(budget_bytes=16 * 1024),),
    ),
    # The acceptance profile: drop + duplicate + pin exhaustion —
    # exercises every recovery path (retry/backoff, dedup ledger,
    # RDMA→AM fallback, unpinnable degradation) at once.
    "chaos": FaultPlan(
        name="chaos",
        links=(LinkRule.static(loss=0.04),
               LinkRule.static(duplicate=0.04, scope="am")),
        pin_budgets=(PinBudget(budget_bytes=16 * 1024),),
    ),
}


def resolve_profile(spec: str, fault_seed: Optional[int] = None,
                    nnodes: int = 0) -> FaultPlan:
    """Turn a ``--fault-profile`` argument into a plan.

    ``spec`` may be a canned profile name (``chaos``), a degradation
    shape name (``flap``; generated for an ``nnodes``-node cluster),
    inline JSON (``'{"seed": 3, "links": [...]}'``), or a path to a
    JSON plan file.  ``fault_seed`` overrides the plan's seed when
    given; a shape's seed also picks which link it degrades.
    """
    if spec in TRACE_SHAPES:
        return make_trace(spec, nnodes, fault_seed or 0)
    if spec in PROFILES:
        plan = PROFILES[spec]
    elif spec.lstrip().startswith("{"):
        plan = FaultPlan.from_json(spec)
    elif os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        names = ", ".join([*sorted(PROFILES), *sorted(TRACE_SHAPES)])
        raise ValueError(f"unknown fault profile {spec!r} "
                         f"(not a name [{names}], inline JSON, or file)")
    if fault_seed is not None:
        plan = plan.with_seed(fault_seed)
    return plan
