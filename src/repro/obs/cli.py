"""``python -m repro run`` / ``trace`` — one DIS stressmark, plain or
with the flight recorder armed.

``trace`` is ``run`` on the same code path with an enabled
:class:`~repro.obs.events.EventLog`; its artifacts land in ``--out``
(default ``trace-out/``):

* ``<workload>.trace.json``   — Chrome trace-event JSON (``--format
  chrome``); open in chrome://tracing or Perfetto.  Validated before
  writing.
* ``<workload>.events.jsonl`` — raw event stream (``--format jsonl``).
* ``<workload>.state.csv``    — Paraver-style ``thread,state,t0,t1``
  intervals, a projection of the same log (``--format csv``; see
  :mod:`repro.obs.states`).
* ``<workload>.breakdown.txt``— the latency decomposition table
  (``--breakdown``; also printed).

The option parsers live in :mod:`repro.__main__`; this module also
holds the helpers every subcommand shares for the fault-plane and
sharding option groups (one resolver, one validator, one printer each).
"""

from __future__ import annotations

import functools
import os
import time

from repro.network.params import MACHINES
from repro.obs.breakdown import collect_breakdowns, render_breakdown
from repro.obs.events import EventLog, OP_END
from repro.obs.export import (
    dump_jsonl,
    export_chrome,
    export_chrome_sharded,
)
from repro.obs.sampler import CounterSampler
from repro.obs.states import dump_csv, state_records
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.sim.sync import shard_summary

FORMATS = ("chrome", "jsonl", "csv")

WORKLOADS = ("pointer", "update", "field", "neighborhood",
             "corner_turn")     # _run_workload's table


def _run_workload(name: str, quick: bool, machine: str, nthreads: int,
                  **common):
    """Run one DIS stressmark at its ``--quick`` or full size;
    ``common`` goes to its params unchanged (seed, events, faults)."""
    import repro.workloads as w

    def size(small, full):
        return small if quick else full

    params, run, sizes = {
        "pointer": (w.PointerParams, w.run_pointer, dict(
            nelems=size(1 << 10, 1 << 14), hops=size(12, 48))),
        "update": (w.UpdateParams, w.run_update, dict(
            nelems=size(1 << 10, 1 << 14), hops=size(16, 64))),
        "field": (w.FieldParams, w.run_field, dict(
            nelems=size(max(2048, nthreads * 16), 1 << 15),
            ntokens=size(2, 8))),
        "neighborhood": (w.NeighborhoodParams, w.run_neighborhood, dict(
            dim=size(64, 256), samples=size(8, 24),
            iterations=size(1, 2))),
        "corner_turn": (w.CornerTurnParams, w.run_corner_turn, dict(
            dim=size(32, 64), tile=8)),
    }[name]
    return run(params(machine=MACHINES[machine], nthreads=nthreads,
                      **common, **sizes))


# -- shared option-group helpers ---------------------------------------

def resolve_fault_plane(args, nnodes: int):
    """``(fault_plan, repair_policy)`` from the subcommand's
    fault-plane flags (shape profiles are generated for an
    ``nnodes``-node cluster); a bad spec or a policy with nothing to
    observe is one argparse error."""
    from repro.faults import resolve_profile

    fault_plan = None
    if args.fault_profile is not None:
        try:
            fault_plan = resolve_profile(args.fault_profile,
                                         args.fault_seed, nnodes)
        except ValueError as exc:
            args.error(str(exc))
    policy = getattr(args, "repair_policy", None)
    if policy and fault_plan is None:
        args.error("--repair-policy needs --fault-profile to observe")
    return fault_plan, policy


def print_fault_summary(m, armed: bool, repair_policy) -> None:
    """What the fault plane did to a full-runtime run with metrics
    ``m``."""
    if armed:
        print(f"  faults: {m.faults_injected} injected, "
              f"{m.timeouts} timeouts, {m.retries} retries, "
              f"{m.rdma_timeouts} rdma->am fallbacks, "
              f"{m.pin_degrades} degraded handles")
        noisy = m.summary()["noisy_links"][:3]
        if noisy:
            links = ", ".join(
                f"{r['src']}->{r['dst']} ({r['timeouts']}t/"
                f"{r['retries']}r)" for r in noisy)
            print(f"  noisy links: {links}")
    if repair_policy:
        print(f"  policy {repair_policy}: {m.policy_actions} "
              f"action(s), {m.kv_failover_ops} kv failover op(s)")


def check_shards(args, nnodes: int) -> None:
    """The one ``--shards`` range check (``>= 1`` is the option's
    type): a shard owns at least one node."""
    if args.shards > nnodes:
        args.error(f"--shards {args.shards} exceeds the {nnodes} "
                   "node(s) of this run")


def print_shard_summary(shard_metrics, per_shard: bool = False) -> None:
    """Conservative-sync rollup of a sharded run, optionally with one
    line per shard."""
    s = shard_summary(shard_metrics)
    print(f"  sync: {s['sync_rounds']} rounds, "
          f"{s['sync_stall_grains']} stall grains "
          f"(mean {s['sync_stall_mean']:.2f}/shard), "
          f"{s['channel_msgs']} channel msgs, "
          f"{s['channel_bytes']} channel bytes")
    if per_shard:
        for m in shard_metrics:
            d = m.as_dict()
            print(f"  shard {d['shard']}: nodes {d['nodes'][0]}.."
                  f"{d['nodes'][1] - 1}, {d['events']} events, "
                  f"backlog {d['max_backlog']}, "
                  f"clock {d['final_clock_us']:.1f} us, "
                  f"busy {d['busy_s']:.3f}s")


# -- the subcommand ----------------------------------------------------

def write_artifacts(out_dir: str, stem: str, formats, log,
                    chrome=export_chrome_sharded) -> None:
    """Export ``log`` as ``<out_dir>/<stem>.*`` in each of ``formats``,
    in that order; ``chrome`` is the exporter for the run's track
    layout (shards, or nodes for the full runtime)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, stem)
    for fmt in formats:
        if fmt == "chrome":
            doc = chrome(log, f"{stem}.trace.json")
            print(f"  wrote {stem}.trace.json "
                  f"({len(doc['traceEvents'])} chrome events, validated)")
        elif fmt == "jsonl":
            n = dump_jsonl(log, f"{stem}.events.jsonl")
            print(f"  wrote {stem}.events.jsonl ({n} lines)")
        else:
            n = dump_csv(state_records(log), f"{stem}.state.csv")
            print(f"  wrote {stem}.state.csv ({n} state intervals)")


def _sharded_field(args, recording: bool) -> int:
    """``run|trace field --shards N``: the Field mix on the sharded
    PDES core.  Recording arms every shard's flight recorder, merges
    the per-shard logs into one timeline and exports per-shard track
    groups plus linked cross-shard spans."""
    from repro.obs.report import xshard_stats
    from repro.obs.shardlog import merge_shard_events
    from repro.workloads.sharded import field_nnodes, run_field_sharded

    if args.workload != "field":
        args.error("--shards applies to the field stressmark only (the "
                   "other stressmarks exercise full-runtime protocol "
                   "paths that span shard boundaries; they run on the "
                   "pooled core)")
    if args.fault_profile is not None:
        args.error("--shards excludes --fault-profile (the fault plane "
                   "lives in the full runtime's transport; use 'python "
                   "-m repro kvtraffic --fault-profile' for the sharded "
                   "core)")
    if recording and (args.breakdown or "csv" in args.formats):
        args.error("--breakdown and --format csv need the full-runtime "
                   "recorder; they are not available with --shards")
    check_shards(args, field_nnodes(args.nthreads))

    if recording:       # a fixed small mix keeps the timeline readable
        ntokens, probes = 4, 2
    else:
        ntokens, probes = (3, 2) if args.quick else (8, 4)
    t0 = time.time()
    res = run_field_sharded(
        args.nthreads, args.shards, ntokens=ntokens, probes=probes,
        machine=args.machine, trace=recording,
        trace_max_events=args.max_events if recording else None)
    wall = time.time() - t0
    run = res["run"]
    head = f"{args.command} field --shards {args.shards}: "
    if not recording:
        print(f"{head}{res['now']:.1f} virtual us, {run.events} sim "
              f"events, {run.events_per_sec:,.0f} ev/s aggregate "
              f"({wall:.1f}s)")
        print_shard_summary(run.metrics, per_shard=True)
        return 0
    log = merge_shard_events(run.shard_events, run.trace_dropped)
    x = xshard_stats(log)
    n_ops = len(log.by_kind(OP_END))
    print(f"{head}{run.now:.1f} virtual us, "
          f"{run.events} sim events, {len(log)} recorded events "
          f"({log.dropped_events} dropped), {n_ops} ops, "
          f"{x['msgs']} cross-shard msgs ({x['linked']} linked) "
          f"({wall:.1f}s)")
    print_shard_summary(run.metrics)
    write_artifacts(args.out, args.workload, args.formats, log)
    return 0


def stressmark_main(args) -> int:
    """``run`` and ``trace``: execute one DIS stressmark and print its
    summary; ``trace`` arms the recorder and exports what it saw."""
    recording = args.command == "trace"
    if recording:   # canonical order, whatever order they were given in
        args.formats = [f for f in FORMATS
                        if f in (args.formats or ("chrome", "jsonl"))]
    # ``run`` is unsharded unless --shards is given; ``trace`` defaults
    # to --shards 1, which is the full runtime.
    if args.shards is not None and (args.shards > 1 or not recording):
        return _sharded_field(args, recording)

    # Shape profiles need the node count before the Runtime exists:
    # what a run with the machine's defaults will use.
    fault_plan, repair_policy = resolve_fault_plane(
        args, RuntimeConfig(machine=MACHINES[args.machine],
                            nthreads=args.nthreads).nnodes)
    log = EventLog(enabled=recording,
                   max_events=args.max_events if recording else None)

    t0 = time.time()
    # The sampler needs the Runtime, which the stressmark builds
    # internally — hook the construction point.
    sampler = None
    orig_init = Runtime.__init__

    def hooked(self, config, sim=None):
        nonlocal sampler
        orig_init(self, config, sim)
        if config.events is log and sampler is None:
            sampler = CounterSampler(self, interval_us=args.sample_us)
            sampler.start()

    if recording and args.sample_us > 0:
        Runtime.__init__ = hooked
    try:
        result = _run_workload(
            args.workload, args.quick, args.machine, args.nthreads,
            seed=args.seed, events=log, fault_plan=fault_plan,
            repair_policy=repair_policy)
    finally:
        Runtime.__init__ = orig_init
    wall = time.time() - t0

    run = result.run
    m = run.metrics
    if recording:
        n_ops = len(log.by_kind(OP_END))
        print(f"trace {args.workload}: {run.elapsed_us:.1f} virtual us, "
              f"{run.sim_events} sim events, {len(log)} recorded events "
              f"({log.dropped_events} dropped), {n_ops} ops, "
              f"{len(sampler.samples) if sampler else 0} counter samples "
              f"({wall:.1f}s)")
    else:
        print(f"run {args.workload}: {run.elapsed_us:.1f} virtual us, "
              f"{run.sim_events} sim events, remote ops "
              f"{m.remote_ops} (rdma share {m.rdma_fraction:.0%}), "
              f"cache hit rate {run.cache_stats.hit_rate:.3f} "
              f"({wall:.1f}s)")
    print_fault_summary(m, fault_plan is not None, repair_policy)
    if not recording:
        return 0

    write_artifacts(args.out, args.workload, args.formats, log,
                    functools.partial(export_chrome, counters=(
                        sampler.samples if sampler else None)))
    if args.breakdown:
        table = render_breakdown(collect_breakdowns(log))
        print(table)
        path = os.path.join(args.out, f"{args.workload}.breakdown.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"  wrote {path}")
    return 0
