"""Cell kinds: what one campaign matrix cell actually runs.

Every kind is a pure function of ``(params, seed)`` returning a
JSON-serializable *payload* with no wall-clock content, so a resumed
campaign merges byte-identical output (the runner keeps timing in the
checkpoint envelope, outside the merged payload).

Kinds:

* ``figure``    — one row of :data:`repro.experiments.EXPERIMENTS`
  (the paper's tables, the ablations) at its quick preset;
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

from repro.util.stats import DegenerateBaselineError

__all__ = ["KINDS", "run_cell", "DegenerateBaselineError"]


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
    res = run_kv_traffic(_traffic_params(params, seed), nshards)
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
        "hit_p99_us": round(q["hit_p99_us"], 3),
        "miss_p50_us": round(q["miss_p50_us"], 3),
        "miss_p99_us": round(q["miss_p99_us"], 3),
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
        nshards)
    q = res.quantiles()
    pol = res.extra.get("policy") or {}
    return {
        "shape": shape,
        "policy": policy or "do_nothing",
        "shards": nshards,
        "requests": res.requests,
        "failures": res.failures,
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
