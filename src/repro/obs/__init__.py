"""Protocol flight recorder: op-level event tracing and analysis.

``repro.obs`` is the observability layer over the simulated XLUPC
runtime: a structured :class:`EventLog` every protocol layer emits
typed, timestamped, causally-linked events into, plus the analyzers
and exporters on top — latency breakdowns (:mod:`repro.obs.breakdown`),
the Paraver-style time-in-state projection (:mod:`repro.obs.states`),
Chrome-trace / JSONL export (:mod:`repro.obs.export`) and counter
time-series sampling (:mod:`repro.obs.sampler`).

Enable it by passing an ``EventLog`` into
:class:`~repro.runtime.runtime.RuntimeConfig` (or a DIS workload's
``events`` field), or from the shell::

    python -m repro trace field --breakdown

The sharded PDES core is covered too: each shard runs its own log,
:mod:`repro.obs.shardlog` merges the per-shard batches into one global
timeline (cross-shard sends/recvs join into linked spans), and
:mod:`repro.obs.slo` watches service completion streams with rolling
SLO windows, burn rates and anomaly flags.  ``python -m repro report
<run-dir>`` (:mod:`repro.obs.report`) renders everything a traced run
left behind as one unified artifact::

    python -m repro trace field --shards 2 --format chrome
    python -m repro kvtraffic --slo-target-us 30 --trace-dir out/
    python -m repro report out/
"""

from repro.obs.breakdown import (
    BreakdownSummary,
    ComponentStats,
    OpBreakdown,
    REMOTE_PROTOS,
    collect_breakdowns,
    render_breakdown,
    summarize,
)
from repro.obs.events import (
    AM_RECV,
    AM_REPLY_RECV,
    AM_REPLY_SEND,
    AM_SEND,
    BARRIER_ARRIVE,
    BARRIER_RELEASE,
    BULK_DRAIN,
    BULK_ISSUE,
    BULK_PLAN,
    CACHE_EVICT,
    CACHE_INVALIDATE,
    CACHE_LOOKUP,
    CACHE_SEED,
    COMP_HANDLER,
    COMP_PIGGYBACK,
    COMP_QUEUE,
    COMP_SOFTWARE,
    COMP_WIRE,
    COMPONENTS,
    COUNTER,
    DEGRADE,
    EventLog,
    FAULT_INJECT,
    HANDLER_BEGIN,
    HANDLER_END,
    OP_BEGIN,
    OP_END,
    PHASE,
    PIN,
    POLICY_ACTION,
    QUEUE_ENTER,
    QUEUE_LEAVE,
    RDMA_COMPLETE,
    RDMA_ISSUE,
    RETRY,
    SYNC_ROUND,
    TIMEOUT,
    TraceEvent,
    UNPIN,
    XSHARD_RECV,
    XSHARD_SEND,
)
from repro.obs.export import (
    CHROME_PHASES,
    HANDLER_TID,
    SYNC_TID,
    XSHARD_TID,
    dump_jsonl,
    export_chrome,
    export_chrome_sharded,
    load_jsonl,
    validate_chrome,
)
from repro.obs.sampler import CounterSampler
from repro.obs.shardlog import (
    merge_shard_events,
    pack_events,
    xshard_pairs,
)
from repro.obs.slo import (
    SLOMonitor,
    SLOWindow,
    detect_anomalies,
    render_slo,
    slo_summary,
    window_stats,
)

__all__ = [
    "EventLog",
    "TraceEvent",
    "CounterSampler",
    "OpBreakdown",
    "ComponentStats",
    "BreakdownSummary",
    "collect_breakdowns",
    "summarize",
    "render_breakdown",
    "export_chrome",
    "validate_chrome",
    "dump_jsonl",
    "load_jsonl",
    "CHROME_PHASES",
    "HANDLER_TID",
    "REMOTE_PROTOS",
    "COMPONENTS",
    "COMP_SOFTWARE",
    "COMP_QUEUE",
    "COMP_WIRE",
    "COMP_HANDLER",
    "COMP_PIGGYBACK",
    "OP_BEGIN",
    "OP_END",
    "PHASE",
    "CACHE_LOOKUP",
    "CACHE_SEED",
    "CACHE_EVICT",
    "CACHE_INVALIDATE",
    "PIN",
    "UNPIN",
    "AM_SEND",
    "AM_RECV",
    "AM_REPLY_SEND",
    "AM_REPLY_RECV",
    "RDMA_ISSUE",
    "RDMA_COMPLETE",
    "QUEUE_ENTER",
    "QUEUE_LEAVE",
    "HANDLER_BEGIN",
    "HANDLER_END",
    "BULK_PLAN",
    "BULK_ISSUE",
    "BULK_DRAIN",
    "COUNTER",
    "FAULT_INJECT",
    "TIMEOUT",
    "RETRY",
    "DEGRADE",
    "POLICY_ACTION",
    "XSHARD_SEND",
    "XSHARD_RECV",
    "SYNC_ROUND",
    "BARRIER_ARRIVE",
    "BARRIER_RELEASE",
    "SYNC_TID",
    "XSHARD_TID",
    "export_chrome_sharded",
    "pack_events",
    "merge_shard_events",
    "xshard_pairs",
    "SLOMonitor",
    "SLOWindow",
    "detect_anomalies",
    "window_stats",
    "slo_summary",
    "render_slo",
]
