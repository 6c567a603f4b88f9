"""One fresh measuring process: set-up, timed repetitions, and — when
asked — the companion and traced repetitions.

A run is several of these (``bench/run.py`` spawns them one after the
other and takes medians across them), because on a small box the speed
of a *process* varies more than the speed of a repetition inside it.
Each does, for its workload::

    import + generate inputs from the seed + warm-up at 1/10 size
    -> setup_s
    timed repetitions of the identical deterministic simulation
       (build + run + oracle, gc.collect() between them) until its
       share of --seconds is spent, at least one
    [trace]  a cache-off companion at full size, then at TRACE_SCALE an
       untraced reference and the traced repetition (cProfile + flight
       recorder), which must reproduce the reference exactly

It takes one JSON job on argv and prints one JSON result as the last
line of stdout.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

#: The traced repetition (and its untraced reference) run at half size:
#: profiler + recorder cost ~6x, and the benchmark contract caps a run.
TRACE_SCALE = 0.5
WARMUP_SCALE = 0.1
QUICK_SCALE = 0.1


class IdentityError(AssertionError):
    """Two runs that must agree bit for bit did not."""


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def require_identical(what: str, a: dict, b: dict) -> None:
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if diff:
        detail = "; ".join(f"{k}: {a.get(k)!r} != {b.get(k)!r}"
                           for k in diff[:6])
        raise IdentityError(f"{what}: {len(diff)} field(s) differ — "
                            f"{detail}")


def measure(job: dict) -> dict:
    t_import = time.perf_counter()
    import numpy
    from bench.workloads import WORKLOADS
    import_s = time.perf_counter() - t_import

    w = WORKLOADS[job["workload"]]
    seed, quick = job["seed"], job["quick"]
    size = QUICK_SCALE if quick else 1.0
    inputs = w.generate(seed, size)
    warm = w.run(w.generate(seed, size * WARMUP_SCALE))
    if warm.failed:
        raise AssertionError(f"warm-up failed its oracle: {warm.failed} "
                             f"of {warm.ops} ops")
    setup_s = time.time() - job["t_spawn"]

    # -- timed repetitions --------------------------------------------
    walls, cpus, busy = [], [], []
    first = None
    while True:
        gc.collect()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        out = w.run(inputs)
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        busy.append(out.host.get("busy_share", 0.0))
        if first is None:
            first = out
        else:
            require_identical(f"repetition {len(walls)} vs 1",
                              first.exact(), out.exact())
        if quick or (sum(walls) + statistics.median(walls) / 2
                     >= job["seconds"]):
            break
    result = {
        "setup_s": setup_s, "import_s": import_s,
        "rep_wall_s": walls, "rep_cpu_s": cpus, "busy_share": busy,
        "peak_rss_mb": _peak_rss_mb(),
        "exact": first.exact(), "nsamples": first.nsamples,
        "attempted": first.ops * len(walls),
        "failed": first.failed * len(walls),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "reference": w.reference,
    }
    if job["trace"]:
        _trace(w, job, inputs, first, result)
    return result


def _trace(w, job: dict, inputs, first, result: dict) -> None:
    """The companion and traced repetitions; adds ``traced_metrics``
    and the ``trace`` artifact to ``result``."""
    import cProfile
    from bench import layers
    from repro.obs import EventLog
    from repro.obs.breakdown import collect_breakdowns, summarize
    from repro.obs.events import COMPONENTS, PIN

    gain_pct = 0.0
    if w.has_address_cache:
        off = w.run(inputs, cache=False)
        result["attempted"] += off.ops
        result["failed"] += off.failed
        if off.digest != first.digest:
            raise IdentityError("cache-off companion computed a "
                                "different answer than cache-on")
        gain_pct = 100.0 * (off.sim_elapsed_us - first.sim_elapsed_us) \
            / off.sim_elapsed_us
    del inputs

    size = (QUICK_SCALE if job["quick"] else 1.0) * TRACE_SCALE
    tinputs = w.generate(job["seed"], size)
    gc.collect()
    t0 = time.perf_counter()
    ref = w.run(tinputs)
    ref_s = time.perf_counter() - t0
    gc.collect()
    log = EventLog()
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    traced = w.run(tinputs, events=log, traced=True)
    profile.disable()
    traced_s = time.perf_counter() - t0
    # Traced vs untraced — and, on shard_traffic, inproc vs mp — are
    # compared, not assumed.
    require_identical("traced vs untraced", ref.exact(), traced.exact())
    result["attempted"] += ref.ops + traced.ops
    result["failed"] += ref.failed + traced.failed

    table = layers.bucket(profile)
    if traced.shard_trace is not None:
        recorded, dropped = traced.shard_trace
        breakdown = summarize([])      # kv_req spans carry no phases
        pin_us = 0.0
    else:
        recorded, dropped = len(log), log.dropped_events
        breakdown = summarize(collect_breakdowns(log, names=("get",)))
        pin_us = sum(float(e.attrs.get("cost", 0.0))
                     for e in log.by_kind(PIN))
    p50 = {c: (breakdown.by_component[c].p50
               if c in breakdown.by_component else 0.0)
           for c in COMPONENTS}

    m = {}
    for lay, row in table["layers"].items():
        m[f"{lay}.self_share"] = row["self_share"]
        m[f"{lay}.calls"] = row["calls"]
    m.update({
        "network.wire_us_p50": p50["wire"],
        "network.queue_us_p50": p50["queue"],
        "core.cache_gain_pct": gain_pct,
        "core.piggyback_us_p50": p50["piggyback"],
        "memory.pin_us": pin_us,
        "runtime.software_us_p50": p50["software"],
        "runtime.handler_us_p50": p50["handler"],
        "obs.events_recorded": recorded,
        "obs.events_dropped": dropped,
        "obs.trace_overhead_ratio": traced_s / ref_s,
    })
    result["traced_metrics"] = m
    result["trace"] = {
        "workload": w.name, "seed": job["seed"], "traced_scale": size,
        "traced_wall_s": traced_s, "reference_wall_s": ref_s,
        "profile_total_s": table["total_s"],
        "layers": table["layers"], "edges": table["edges"],
        "top": table["top"],
        "breakdown": {
            "ops": breakdown.n_ops, "e2e_mean_us": breakdown.e2e_mean,
            "components": {c: vars(s) for c, s
                           in breakdown.by_component.items()}},
    }


if __name__ == "__main__":
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # Replace the script directory: bench/ modules are imported as
    # bench.<name>, never as top-level names.
    sys.path[0:1] = [_root, os.path.join(_root, "src")]
    _result = measure(json.loads(sys.argv[1]))
    sys.stdout.flush()
    print(json.dumps(_result))
