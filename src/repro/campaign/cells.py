"""Cell kinds: what one campaign matrix cell actually runs.

Every kind is a pure function of ``(params, seed)`` returning a
JSON-serializable *payload* with no wall-clock content, so a resumed
campaign merges byte-identical output (the runner keeps timing in the
checkpoint envelope, outside the merged payload).

Kinds:

* ``micro``     — one paired GET/PUT microbenchmark point (Figure 6/7
  machinery) at one (op, machine, size);
* ``dis``       — one DIS stressmark scale point: paired cache-off/on
  runs across ``params["seeds"]``, reported as a 95% CI;
* ``figure``    — one row of :data:`repro.experiments.EXPERIMENTS`
  (the paper's tables) at its quick preset;
* ``kvtraffic`` — one open-loop Zipfian KV traffic run (FCT
  histograms, SLO windows);
* ``lossy``     — one (trace shape, repair policy) traffic run with
  its FCT CDF (the linkguardian-style comparison);
* ``noop``      — a deterministic placeholder used by the resume
  tests (optional ``sleep_s`` wall-time knob).

A degenerate cell (zero-elapsed baseline) raises
:class:`~repro.util.stats.DegenerateBaselineError`, which the runner
records per-cell instead of letting it abort the campaign.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from typing import Callable, Dict

from repro.util.stats import DegenerateBaselineError, mean_ci95

__all__ = ["KINDS", "run_cell", "DegenerateBaselineError"]


def _machine(name: str):
    from repro.network.params import MACHINES
    try:
        return MACHINES[name]
    except KeyError:
        names = ", ".join(sorted(MACHINES))
        raise ValueError(f"unknown machine {name!r} (expected one "
                         f"of: {names})") from None


# ---------------------------------------------------------------------------
# micro: one Figure-6/7 style point
# ---------------------------------------------------------------------------

def _micro_cell(params: Dict, seed: int) -> Dict:
    from repro.experiments import micro_pair
    from repro.util.stats import improvement_pct
    from repro.workloads.micro import get_roundtrip_us, put_overhead_us

    op = params.get("op", "get")
    fns = {"get": get_roundtrip_us, "put": put_overhead_us}
    if op not in fns:
        raise ValueError(f"micro op must be get|put, got {op!r}")
    machine = _machine(params.get("machine", "gm"))
    size = int(params["size_bytes"])
    z, w = micro_pair(fns[op], machine, size,
                      int(params.get("reps", 10)), seed)
    return {
        "op": op,
        "machine": params.get("machine", "gm"),
        "size_bytes": size,
        "z_us": round(z, 4),
        "w_us": round(w, 4),
        "improvement_pct": round(improvement_pct(z, w), 3),
    }


# ---------------------------------------------------------------------------
# dis: one stressmark scale point, CI across seeds
# ---------------------------------------------------------------------------

def _dis_params(workload: str, threads: int, nodes: int, machine,
                preset: str, capacity: int, seed: int):
    from repro.experiments.figures import (_field_params,
                                           _neighborhood_params,
                                           _pointer_params,
                                           _update_params)
    from repro.workloads.dis.field import FieldParams, run_field
    from repro.workloads.dis.neighborhood import (NeighborhoodParams,
                                                  run_neighborhood)
    from repro.workloads.dis.pointer import PointerParams, run_pointer
    from repro.workloads.dis.update import UpdateParams, run_update

    tpn = threads // nodes
    if preset == "paper":
        makers = {
            "pointer": (lambda: _pointer_params(threads, nodes, machine,
                                                seed, capacity),
                        run_pointer),
            "update": (lambda: _update_params(threads, nodes, machine,
                                              seed), run_update),
            "neighborhood": (lambda: _neighborhood_params(
                threads, nodes, machine, seed, capacity),
                run_neighborhood),
            "field": (lambda: _field_params(threads, nodes, machine,
                                            seed), run_field),
        }
    elif preset == "small":
        makers = {
            "pointer": (lambda: PointerParams(
                machine=machine, nthreads=threads, threads_per_node=tpn,
                cache_capacity=capacity, seed=seed, nelems=1024, hops=8),
                run_pointer),
            "update": (lambda: UpdateParams(
                machine=machine, nthreads=threads, threads_per_node=tpn,
                seed=seed, nelems=1024, hops=64), run_update),
            "neighborhood": (lambda: NeighborhoodParams(
                machine=machine, nthreads=threads, threads_per_node=tpn,
                cache_capacity=capacity, seed=seed, dim=threads * 24,
                width=32, distance=10, samples=8, iterations=2),
                run_neighborhood),
            "field": (lambda: FieldParams(
                machine=machine, nthreads=threads, threads_per_node=tpn,
                seed=seed, nelems=128 * threads, ntokens=3), run_field),
        }
    else:
        raise ValueError(f"dis preset must be small|paper, got "
                         f"{preset!r}")
    if workload not in makers:
        names = ", ".join(sorted(makers))
        raise ValueError(f"unknown dis workload {workload!r} "
                         f"(expected one of: {names})")
    make, run = makers[workload]
    return make(), run


def _dis_cell(params: Dict, seed: int) -> Dict:
    from repro.experiments import paired_samples

    workload = params["workload"]
    threads = int(params.get("threads", 8))
    nodes = int(params.get("nodes", 2))
    machine_name = params.get("machine", "gm")
    preset = params.get("preset", "small")
    capacity = int(params.get("capacity", 100))
    seeds = [int(s) for s in params.get("seeds", [seed])]

    p, run = _dis_params(workload, threads, nodes,
                         _machine(machine_name), preset, capacity,
                         seeds[0])
    samples, hit_rates, skipped = paired_samples(run, p, seeds)
    payload = {
        "workload": workload,
        "threads": threads,
        "nodes": nodes,
        "machine": machine_name,
        "preset": preset,
        "capacity": capacity,
        "n": len(samples),
        "skipped": skipped,
    }
    if samples:
        ci = mean_ci95(samples)
        payload.update(
            improvement_pct=round(ci.mean, 3),
            ci_half_width=round(ci.half_width, 3),
            hit_rate=round(sum(hit_rates) / len(hit_rates), 4),
        )
    else:
        payload.update(improvement_pct=None, ci_half_width=None,
                       hit_rate=None)
    return payload


# ---------------------------------------------------------------------------
# figure: one row of the experiment table
# ---------------------------------------------------------------------------

def _figure_cell(params: Dict, seed: int) -> Dict:
    from repro.experiments import EXPERIMENTS

    name = params["figure"]
    if name not in EXPERIMENTS:
        names = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown figure {name!r} (expected one "
                         f"of: {names})")
    exp = EXPERIMENTS[name]
    # A leg shares its ``fixed`` params across figures: each runner
    # takes the ones it has a keyword for, over its quick preset.
    accepted = inspect.signature(exp.run).parameters
    fig = exp.run(**{**exp.quick,
                     **{k: v for k, v in params.items() if k in accepted}})
    return {
        "figure": name,
        "figure_id": fig.figure_id,
        "title": fig.title,
        "columns": list(fig.columns),
        "rows": fig.rows(),
    }


# ---------------------------------------------------------------------------
# kvtraffic / lossy: service-level traffic cells
# ---------------------------------------------------------------------------

def _traffic_params(params: Dict, seed: int, fault_plan: str = "",
                    policy: str = ""):
    from repro.workloads.kv_traffic import TrafficParams
    return TrafficParams(
        nnodes=int(params.get("nnodes", 8)),
        nclients=int(params.get("nclients", 32)),
        requests=int(params.get("requests", 10_000)),
        zipf_s=float(params.get("zipf_s", 0.9)),
        seed=seed,
        machine=params.get("machine", "gm"),
        slo_target_us=float(params.get("slo_target_us", 0.0)),
        slo_window_us=float(params.get("slo_window_us", 5000.0)),
        fault_plan=fault_plan,
        repair_policy=policy,
    )


def _kv_cell(params: Dict, seed: int) -> Dict:
    from repro.workloads.kv_traffic import hist_cdf, run_kv_traffic

    nshards = int(params.get("shards", 1))
    res = run_kv_traffic(_traffic_params(params, seed), nshards,
                         mode=params.get("mode", "inproc"))
    q = res.quantiles()
    payload = {
        "zipf_s": float(params.get("zipf_s", 0.9)),
        "shards": nshards,
        "requests": res.requests,
        "gets": res.gets,
        "puts": res.puts,
        "conns": res.conns,
        "hit_rate": round(res.hit_rate, 4),
        "p50_us": round(q["p50_us"], 3),
        "p99_us": round(q["p99_us"], 3),
        "hit_p50_us": round(q["hit_p50_us"], 3),
        "miss_p50_us": round(q["miss_p50_us"], 3),
        "final_clock_us": res.now,
        "events": res.events,
        "fct_cdf": hist_cdf(res.hist),
    }
    slo = res.extra.get("slo")
    if slo is not None:
        payload["slo"] = {"target_us": slo["target_us"],
                          "window_us": slo["window_us"],
                          "windows": slo["windows"],
                          "summary": slo["summary"],
                          "anomalies": slo["anomalies"]}
    return payload


def _lossy_cell(params: Dict, seed: int) -> Dict:
    from repro.faults.trace import COMPRESSED_TRACE_KW, make_trace
    from repro.workloads.kv_traffic import hist_cdf, run_kv_traffic

    shape = params.get("shape", "flap")
    policy = params.get("policy", "")
    nshards = int(params.get("shards", 1))
    trace_kw = dict(params.get("trace_kw") or {})
    if not trace_kw and params.get("trace", "full") == "compressed":
        trace_kw = dict(COMPRESSED_TRACE_KW.get(shape, {}))
    plan = make_trace(shape, int(params.get("nnodes", 8)),
                      int(params.get("trace_seed", 0)), **trace_kw)
    res = run_kv_traffic(
        _traffic_params(params, seed, fault_plan=plan.to_json(),
                        policy=policy),
        nshards, mode=params.get("mode", "inproc"))
    q = res.quantiles()
    pol = res.extra.get("policy") or {}
    return {
        "shape": shape,
        "policy": policy or "do_nothing",
        "shards": nshards,
        "requests": res.requests,
        "failures": sum(o["counts"]["failures"]
                        for o in res.extra["run"].outputs),
        "hit_rate": round(res.hit_rate, 4),
        "p50_us": round(q["p50_us"], 3),
        "p99_us": round(q["p99_us"], 3),
        "decisions": len(pol.get("decisions", [])),
        "decisions_digest": pol.get("digest", 0),
        "fct_cdf": hist_cdf(res.hist),
    }


# ---------------------------------------------------------------------------
# noop: deterministic placeholder for orchestration tests
# ---------------------------------------------------------------------------

def _noop_cell(params: Dict, seed: int) -> Dict:
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    blob = json.dumps({"params": {k: v for k, v in sorted(params.items())
                                  if k != "sleep_s"},
                       "seed": seed}, sort_keys=True)
    digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()
    return {"value": int(digest[:12], 16), "seed": seed}


KINDS: Dict[str, Callable[[Dict, int], Dict]] = {
    "micro": _micro_cell,
    "dis": _dis_cell,
    "figure": _figure_cell,
    "kvtraffic": _kv_cell,
    "lossy": _lossy_cell,
    "noop": _noop_cell,
}


def run_cell(kind: str, params: Dict, seed: int = 0) -> Dict:
    """Execute one cell; returns its deterministic payload."""
    try:
        fn = KINDS[kind]
    except KeyError:
        names = ", ".join(sorted(KINDS))
        raise ValueError(f"unknown cell kind {kind!r} (expected one "
                         f"of: {names})") from None
    return fn(params, seed)
