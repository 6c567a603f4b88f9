"""Command-line front door: every ``python -m repro`` subcommand.

``python -m repro --help`` lists the subcommands (figure runners, ``run``,
``trace``, ``kvtraffic``, ``fuzz``, ``report``, ``campaign``) and
``python -m repro <command> --help`` each one's options — this module
is the one registry that declares them.  The options several commands
share (workload, fault plane, sharding) are each defined once, in the
three ``_*_options`` group builders below; the subcommand bodies live
next to the code they drive (:mod:`repro.obs.cli`,
:mod:`repro.obs.report`, :mod:`repro.campaign.cli`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.experiments import EXPERIMENTS


def _parse_seeds(text: str):
    """``"7"`` -> [7]; ``"0..9"`` -> [0, 1, ..., 9] (inclusive)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(
                f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _figure_main(args) -> int:
    names = sorted(EXPERIMENTS) if args.command == "all" else [args.command]
    for name in names:
        exp = EXPERIMENTS[name]
        t0 = time.time()
        fig = exp.run(**(exp.quick if args.quick else exp.full))
        print(fig.render())
        print(f"({time.time() - t0:.1f}s)\n")
    return 0


def fuzz_main(args) -> int:
    from repro.obs.cli import resolve_fault_plane
    from repro.testing import MATRICES, config_by_name, fuzz

    if args.quick or args.matrix is None:
        configs = list(MATRICES["quick"])
    elif args.matrix in MATRICES:
        configs = list(MATRICES[args.matrix])
    else:
        try:
            configs = [config_by_name(n.strip())
                       for n in args.matrix.split(",") if n.strip()]
        except KeyError as exc:
            args.error(str(exc))

    # Programs replay on clusters of different sizes, so there is no
    # one node count to generate a shape profile for.
    fault_plan = (resolve_fault_plane(args, 0)[0] if args.faults
                  else None)
    t0 = time.time()
    report = fuzz(args.seed, n_ops=args.ops, nthreads=args.nthreads,
                  configs=configs, shrink_failures=not args.no_shrink,
                  corpus_dir=args.corpus, trace_dir=args.trace_dir,
                  fault_plan=fault_plan, kv=args.kv)
    status = "OK" if report.ok else f"{len(report.failures)} FAILURE(S)"
    mode = " [faults]" if args.faults else ""
    if args.kv:
        mode += " [kv]"
    print(f"fuzz{mode}: {report.programs_run} program(s), "
          f"{report.ops_run} ops, {len(report.configs)} configs — "
          f"{status} ({time.time() - t0:.1f}s)")
    return 0 if report.ok else 1


def kvtraffic_main(args) -> int:
    """Open-loop Zipfian KV traffic on the sharded core; prints SLO
    quantiles and the cache hit rate."""
    from repro.obs.cli import check_shards, resolve_fault_plane
    from repro.workloads.kv_traffic import (TrafficParams,
                                            check_fault_plan,
                                            run_kv_traffic)

    try:
        p = TrafficParams(nnodes=args.nnodes, nclients=args.nclients,
                          requests=args.requests, zipf_s=args.skew,
                          seed=args.seed, machine=args.machine,
                          slo_target_us=args.slo_target_us,
                          slo_window_us=args.slo_window_us)
    except ValueError as exc:
        args.error(str(exc))
    check_shards(args, args.nnodes)
    fault_plan, repair_policy = resolve_fault_plane(args, args.nnodes)
    if fault_plan is not None:
        try:
            check_fault_plan(fault_plan)
        except ValueError as exc:
            args.error(str(exc))
        p.fault_plan = fault_plan.to_json()
    p.repair_policy = repair_policy or ""
    t0 = time.time()
    res = run_kv_traffic(p, args.shards, mode=args.shard_backend,
                         trace=args.trace_dir is not None)
    q = res.quantiles()
    print(f"kvtraffic s={args.skew} shards={args.shards}: "
          f"{res.requests} requests ({res.gets} get / {res.puts} put), "
          f"hit rate {res.hit_rate:.3f}, {res.conns} connections")
    print(f"  FCT p50={q['p50_us']:.1f}us p99={q['p99_us']:.1f}us  "
          f"one-sided p50={q['hit_p50_us']:.1f}us  "
          f"AM p50={q['miss_p50_us']:.1f}us  "
          f"({res.events} sim events, {time.time() - t0:.1f}s)")
    slo = res.extra.get("slo")
    if slo is not None:
        from repro.obs.slo import render_slo
        s = slo["summary"]
        print(f"  SLO: burn rate {s['burn_rate']:.2f} over "
              f"{s['windows']} window(s), "
              f"{s['violations']} violation(s) "
              f"({s['violation_frac']:.2%}), "
              f"{len(slo['anomalies'])} anomaly flag(s)")
        if args.trace_dir is None:
            print(render_slo(slo["windows"], s, slo["anomalies"]))
    links = res.extra.get("links")
    if links:
        noisy = sorted(links.items(),
                       key=lambda kv: (-kv[1]["timeouts"],
                                       -kv[1]["retries"], kv[0]))[:3]
        row = ", ".join(f"{src}->{dst} ({tot['timeouts']}t/"
                        f"{tot['retries']}r)"
                        for (src, dst), tot in noisy)
        failures = sum(o["counts"]["failures"]
                       for o in res.extra["run"].outputs)
        print(f"  lossy fabric: {failures} exhausted request(s); "
              f"noisy links: {row}")
    policy = res.extra.get("policy")
    if policy is not None:
        print(f"  policy {policy['name']}: "
              f"{len(policy['decisions'])} decision(s), "
              f"digest {policy['digest']:#018x}")
    if args.trace_dir is not None:
        _write_kvtraffic_artifacts(args.trace_dir, res, slo)
    return 0


def _write_kvtraffic_artifacts(out_dir, res, slo) -> None:
    """Write the kvtraffic run directory ``python -m repro report``
    consumes: merged events (jsonl + validated Chrome trace),
    slo.json, shard_summary.json, links.json."""
    import os

    from repro.campaign.artifacts import atomic_write_json
    from repro.obs.cli import write_artifacts
    from repro.obs.shardlog import merge_shard_events
    from repro.runtime.metrics import RuntimeMetrics

    def write_json(name, doc):
        path = atomic_write_json(os.path.join(out_dir, name), doc,
                                 indent=1, sort_keys=True)
        print(f"  wrote {path}")

    run = res.extra["run"]
    write_artifacts(
        out_dir, "kvtraffic", ("jsonl", "chrome"),
        merge_shard_events(run.shard_events, run.trace_dropped))
    if slo is not None:
        write_json("slo.json", slo)
    metrics = RuntimeMetrics()
    metrics.attach_shards(run.metrics)
    write_json("shard_summary.json", metrics.shard_summary())
    links = res.extra.get("links")
    if links:
        doc = {
            "links": {f"{src}->{dst}": tot
                      for (src, dst), tot in sorted(links.items())},
            "failures": sum(o["counts"]["failures"]
                            for o in run.outputs),
        }
        policy = res.extra.get("policy")
        if policy is not None:
            doc["policy"] = {"name": policy["name"],
                             "digest": policy["digest"],
                             "decisions": policy["decisions"]}
        write_json("links.json", doc)


# -- shared option groups: each flag is defined exactly once -----------

def _at_least(low, kind=int):
    """argparse ``type=``: a finite ``kind`` number no smaller than
    ``low``."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite")
        return value
    parse.__name__ = kind.__name__     # "invalid int value: 'x'"
    return parse


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _workload_options(ap, *, machine=False, nthreads=None, seed=None,
                      seed_type=int, quick=None) -> None:
    """``--machine/--nthreads/--seed/--quick``.  A command names the
    ones it takes by passing its documented default (``quick``: its
    help line, since what "quick" trims is per command)."""
    from repro.network.params import MACHINES

    if machine:
        ap.add_argument("--machine", default="gm",
                        choices=sorted(MACHINES),
                        help="machine model (default gm)")
    if nthreads is not None:
        ap.add_argument("--nthreads", type=_at_least(1), default=nthreads,
                        help="UPC threads (default %(default)s)")
    if seed is not None:
        ap.add_argument("--seed", type=seed_type, default=seed,
                        help="workload seed; fuzz takes N or an "
                             "inclusive range A..B (default %(default)s)")
    if quick is not None:
        ap.add_argument("--quick", action="store_true", help=quick)


def _fault_options(ap, *, profile_default=None, policy=True) -> None:
    """The fault plane: a ``--fault-profile`` plan, optionally watched
    by a ``--repair-policy``; resolved by
    :func:`repro.obs.cli.resolve_fault_plane`."""
    from repro.faults import POLICIES

    ap.add_argument("--fault-profile", default=profile_default,
                    metavar="SPEC",
                    help="fault plan: a profile name (drop, dup, delay, "
                         "stall, pin, chaos), a link-degradation shape "
                         "(flap, burst, degrade, gray), inline JSON, or a "
                         "JSON file path (see docs/FAULTS.md; default "
                         "%(default)s)")
    ap.add_argument("--fault-seed", type=int, default=None,
                    help="override the fault plan's RNG seed; a shape's "
                         "seed also picks its link (fuzz: the base each "
                         "program seed derives from)")
    if policy:
        ap.add_argument("--repair-policy", default=None, choices=POLICIES,
                        help="repair policy acting on per-link health "
                             "(needs a --fault-profile to observe)")


def _shard_options(ap, *, shards, backend) -> None:
    """``--shards/--shard-backend`` with the command's own defaults;
    ranges are checked by :func:`repro.obs.cli.check_shards`."""
    ap.add_argument("--shards", type=_at_least(1), default=shards,
                    metavar="N",
                    help="run on the sharded PDES core with N shards "
                         "(run/trace: field only; see "
                         "docs/PERFORMANCE.md; default %(default)s)")
    ap.add_argument("--shard-backend", default=backend,
                    choices=("inproc", "mp"),
                    help="sharded-core backend: in-process, or one "
                         "worker process per shard (default "
                         "%(default)s; None picks mp for N>1)")


# -- the registry ------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The one parser behind ``python -m repro``."""
    from repro.campaign.cli import campaign_main
    from repro.obs.cli import FORMATS, WORKLOADS, stressmark_main
    from repro.obs.report import report_main

    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Scalable RDMA performance in PGAS "
                    "languages' (IPDPS 2009) on the simulator: "
                    "regenerate a figure, or run, record, load, fuzz "
                    "and sweep the runtime.")
    sub = ap.add_subparsers(dest="command", metavar="COMMAND",
                            required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func, error=p.error)
        return p

    for name in sorted(EXPERIMENTS) + ["all"]:
        p = command(name, _figure_main,
                    "regenerate every figure" if name == "all"
                    else f"regenerate {name}")
        _workload_options(p, quick="truncate sweeps for a fast look")

    def stressmark(name, help, shards, backend):
        p = command(name, stressmark_main, help)
        p.add_argument("workload", choices=WORKLOADS,
                       help="which stressmark")
        _workload_options(p, machine=True, nthreads=8, seed=1,
                          quick="small problem sizes (smoke mode)")
        _fault_options(p)
        _shard_options(p, shards=shards, backend=backend)
        return p

    stressmark("run", "run a DIS stressmark and print its summary; "
               "--fault-profile injects deterministic faults (see "
               "docs/FAULTS.md)", shards=None, backend=None)
    p = stressmark("trace", "run a DIS stressmark with the protocol "
                   "flight recorder on and export the event trace (see "
                   "docs/OBSERVABILITY.md)", shards=1, backend="inproc")
    p.add_argument("--out", default="trace-out", metavar="DIR",
                   help="artifact directory (default trace-out)")
    p.add_argument("--format", dest="formats", action="append",
                   choices=FORMATS, default=None,
                   help="export format; repeatable "
                        "(default: chrome and jsonl)")
    p.add_argument("--breakdown", action="store_true",
                   help="render the remote-GET latency decomposition")
    p.add_argument("--sample-us", type=_at_least(0, float), default=100.0,
                   help="counter sampling interval in virtual µs "
                        "(0 disables; default 100)")
    p.add_argument("--max-events", type=_at_least(1), default=None,
                   help="flight-recorder memory bound (drop-newest)")

    p = command("kvtraffic", kvtraffic_main,
                "open-loop Zipfian/Poisson KV service traffic on the "
                "sharded event core (see docs/SERVICE.md)")
    p.add_argument("--requests", type=int, default=100_000,
                   help="total requests across all clients, rounded "
                        "up to a multiple of --nclients (200 over 32 "
                        "clients runs 224)")
    p.add_argument("--skew", type=float, default=0.9,
                   help="Zipf exponent s (default 0.9)")
    p.add_argument("--nclients", type=int, default=32)
    p.add_argument("--nnodes", type=int, default=8)
    p.add_argument("--slo-target-us", type=_at_least(0, float), default=0.0,
                   metavar="US",
                   help="arm the streaming SLO monitor with this "
                        "latency target (µs); prints windowed "
                        "burn-rate / anomaly summary")
    p.add_argument("--slo-window-us", type=_positive, default=5000.0,
                   metavar="US",
                   help="SLO rolling-window width in virtual µs "
                        "(default 5000)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="arm the flight recorder and write run "
                        "artifacts (events.jsonl, trace.json, slo.json, "
                        "shard_summary.json) here — feed the directory "
                        "to 'python -m repro report'")
    _workload_options(p, machine=True, seed=0)
    _fault_options(p)
    _shard_options(p, shards=1, backend="inproc")

    p = command("fuzz", fuzz_main,
                "differential fuzz: random race-free UPC programs "
                "replayed across the config matrix against a "
                "flat-memory oracle, failures shrunk to a pytest "
                "reproducer (see repro.testing)")
    p.add_argument("--ops", type=_at_least(1), default=200,
                   help="approximate ops per generated program")
    p.add_argument("--matrix", default=None,
                   help="'quick', 'full', or comma-separated config "
                        "point names (default: quick)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="serialize shrunk failures as JSON here")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="dump a flight-recorder JSONL log of each "
                        "shrunk failing program here (CI artifact)")
    p.add_argument("--faults", action="store_true",
                   help="also replay every program under the "
                        "--fault-profile plan; the reliability layer "
                        "must still match the oracle")
    p.add_argument("--kv", action="store_true",
                   help="include KV-store ops (kv_create/put/get/del/"
                        "multi-get over both access paths) in the "
                        "generated programs")
    _workload_options(p, nthreads=4, seed=[0], seed_type=_parse_seeds,
                      quick="force the quick matrix (smoke mode)")
    _fault_options(p, profile_default="chaos", policy=False)

    p = command("report", report_main,
                "render one unified report (text + JSON) from a traced "
                "run directory: latency breakdown, SLO windows, "
                "per-shard rollups, anomaly flags")
    p.add_argument("run_dir", metavar="RUN-DIR",
                   help="directory holding run artifacts "
                        "(*.events.jsonl, slo.json, shard_summary.json, "
                        "links.json, campaign.json)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="where to write report.txt/report.json "
                        "(default: the run dir itself)")

    p = command("campaign", campaign_main,
                "run, resume, and render a checkpointed sweep matrix "
                "(see docs/CAMPAIGNS.md)")
    p.add_argument("--spec", default="smoke",
                   help="built-in spec name, JSON file, or inline "
                        "JSON (default: smoke; see --list-specs)")
    p.add_argument("--run-dir", default=None,
                   help="checkpoint/output directory (default: "
                        "campaign-runs/<spec name>)")
    p.add_argument("--workers", type=_at_least(0), default=None,
                   help="worker processes (default: the spec's; "
                        "0 = in-process)")
    p.add_argument("--max-cells", type=_at_least(0), default=None,
                   help="execute at most N cells this invocation "
                        "(the rest stay pending for a resume)")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing checkpoints and re-run "
                        "every cell")
    p.add_argument("--render-only", action="store_true",
                   help="skip execution; re-render from existing "
                        "checkpoints")
    p.add_argument("--list-specs", action="store_true",
                   help="list built-in campaign specs and exit")
    p.add_argument("--list-cells", action="store_true",
                   help="expand the spec, list its cells, and exit")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
