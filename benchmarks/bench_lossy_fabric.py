"""Lossy-fabric benchmark: repair-policy comparison under link traces.

Drives the open-loop KV traffic harness
(:mod:`repro.workloads.kv_traffic`) under time-evolving link
degradation traces (:mod:`repro.faults.trace`) and compares the four
repair policies (:mod:`repro.faults.policy`) on each trace shape:

* **per-policy FCT CDFs** (linkguardian-style): the full request
  population's flow-completion-time distribution, one CDF per
  (shape, policy) cell, read straight off the fixed-edge log-binned
  histograms so the curves are layout-invariant;
* **tail gates**: under the flapping trace, ``disable_and_repair``
  (detour around the sick link while it is repaired) must beat
  ``do_nothing`` at p99 — and every shape must actually hurt the
  ``do_nothing`` arm relative to the healthy baseline;
* an **invariance referee**: the same traced run merged from 1, 2 and
  4 shards on both backends (inproc + mp) must produce bit-identical
  histograms, per-client digests, per-link health totals and
  policy-decision digests.

Usage::

    PYTHONPATH=src python benchmarks/bench_lossy_fabric.py          # full
    PYTHONPATH=src python benchmarks/bench_lossy_fabric.py --quick  # CI smoke

Output lands in ``BENCH_lossy_fabric.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.artifacts import atomic_write_json
from repro.campaign.gate import (BaselineError, GateMetric,
                                 check_baseline)
from repro.faults.policy import POLICIES
from repro.faults.trace import COMPRESSED_TRACE_KW, make_trace
from repro.workloads.kv_traffic import (TrafficParams, TrafficResult,
                                        hist_cdf, hist_quantile,
                                        run_kv_traffic)

FULL_SHAPES = ("flap", "burst", "degrade", "gray")
QUICK_SHAPES = ("flap", "degrade", "gray")
#: Per-run request counts sized so the traffic spans the trace horizon
#: (32 clients x mean gap 2us -> ~625 requests per virtual ms).
FULL_REQUESTS = 320_000       # ~20 ms of traffic, the full horizon
QUICK_REQUESTS = 96_000       # ~6 ms against compressed traces
REFEREE_REQUESTS = 24_000

#: Quick mode compresses the trace shapes into the shorter traffic
#: window (shared with the campaign's lossy cells).
QUICK_TRACE_KW = COMPRESSED_TRACE_KW


def _row(res: TrafficResult, policy: str, wall_s: float) -> Dict:
    q = res.quantiles()
    pol = res.extra.get("policy") or {}
    return {
        "policy": policy,
        "requests": res.requests,
        "failures": sum(o["counts"]["failures"]
                        for o in res.extra["run"].outputs),
        "hit_rate": round(res.hit_rate, 4),
        "p50_us": round(q["p50_us"], 3),
        "p99_us": round(q["p99_us"], 3),
        "decisions": len(pol.get("decisions", [])),
        "decisions_digest": pol.get("digest", 0),
        "fct_cdf": hist_cdf(res.hist),
        "wall_s": round(wall_s, 3),
    }


def _params(requests: int, seed: int, plan_json: str = "",
            policy: str = "") -> TrafficParams:
    return TrafficParams(requests=requests, seed=seed, zipf_s=0.9,
                         fault_plan=plan_json, repair_policy=policy)


def run_referee(seed: int = 13, trace_seed: int = 7) -> Dict:
    """The same flapping traced run merged from 1/2/4 shards on both
    backends must be bit-identical — histograms, digests, per-link
    health and the policy-decision digest."""
    tr = make_trace("flap", 8, trace_seed, **QUICK_TRACE_KW["flap"])
    p = _params(REFEREE_REQUESTS, seed, tr.to_json(),
                "disable_and_repair")
    ref = run_kv_traffic(p, 1)
    identical = True
    legs = []
    for nshards, mode in ((2, "inproc"), (4, "inproc"), (2, "mp")):
        res = run_kv_traffic(p, nshards, mode=mode)
        same = (np.array_equal(res.hist, ref.hist)
                and res.digests == ref.digests
                and res.extra["links"] == ref.extra["links"]
                and (res.extra["policy"]["digest"]
                     == ref.extra["policy"]["digest"]))
        identical = identical and same
        legs.append({"shards": nshards, "mode": mode,
                     "identical": same})
    return {
        "requests": ref.requests,
        "decisions": len(ref.extra["policy"]["decisions"]),
        "legs": legs,
        "identical_across_layouts": identical,
    }


def run_bench(quick: bool = False, nshards: int = 2, seed: int = 9,
              trace_seed: int = 7) -> Dict:
    shapes = QUICK_SHAPES if quick else FULL_SHAPES
    requests = QUICK_REQUESTS if quick else FULL_REQUESTS

    t0 = time.perf_counter()
    healthy = run_kv_traffic(_params(requests, seed), nshards)
    wall = time.perf_counter() - t0
    baseline = {
        "p50_us": round(hist_quantile(healthy.hist, 0.50), 3),
        "p99_us": round(hist_quantile(healthy.hist, 0.99), 3),
        "fct_cdf": hist_cdf(healthy.hist),
        "wall_s": round(wall, 3),
    }
    print(f"  healthy baseline: p50={baseline['p50_us']}us "
          f"p99={baseline['p99_us']}us")

    results: Dict[str, List[Dict]] = {}
    for shape in shapes:
        kw = QUICK_TRACE_KW[shape] if quick else {}
        tr = make_trace(shape, 8, trace_seed, **kw)
        trace_json = tr.to_json()
        rows = []
        for policy in POLICIES:
            p = _params(requests, seed, trace_json, policy)
            t0 = time.perf_counter()
            res = run_kv_traffic(p, nshards)
            row = _row(res, policy, time.perf_counter() - t0)
            rows.append(row)
            print(f"  {shape:8s} {policy:20s} "
                  f"p50={row['p50_us']:8.2f}us "
                  f"p99={row['p99_us']:9.2f}us  "
                  f"fail={row['failures']:4d} "
                  f"decisions={row['decisions']:3d}  "
                  f"({row['wall_s']:.1f}s)")
        results[shape] = rows

    referee = run_referee(trace_seed=trace_seed)
    print(f"  referee: {referee['requests']} requests x "
          f"{len(referee['legs']) + 1} layouts, identical="
          f"{referee['identical_across_layouts']}")
    return {
        "bench": "lossy_fabric",
        "mode": "quick" if quick else "full",
        "workload": {
            "nnodes": 8,
            "nclients": 32,
            "requests_per_cell": requests,
            "shards": nshards,
            "seed": seed,
            "trace_seed": trace_seed,
            "shapes": list(shapes),
            "policies": list(POLICIES),
        },
        "baseline": baseline,
        "results": results,
        "invariance": referee,
    }


def _policy_benefit(doc: Dict) -> List[Tuple[str, float]]:
    """do_nothing p99 / disable_and_repair p99 per shape: how much the
    repair policy buys at the tail.  Dimensionless — but quick mode
    runs compressed traces, so it is only comparable within a mode."""
    out = []
    for shape, rows in sorted(doc.get("results", {}).items()):
        by = {r["policy"]: r for r in rows}
        if ("do_nothing" in by and "disable_and_repair" in by
                and by["disable_and_repair"]["p99_us"] > 0):
            out.append((shape, by["do_nothing"]["p99_us"]
                        / by["disable_and_repair"]["p99_us"]))
    return out


#: ``--baseline`` regression gate (shared machinery in
#: repro.campaign.gate).  Quick and full mode run different traces
#: (compressed vs full horizon), so the metric is skipped with a note
#: when the modes differ rather than compared across them.
GATE_METRICS = (
    GateMetric("policy_benefit_p99", _policy_benefit,
               skip_cross_mode=True),
)


def check(report: Dict) -> List[str]:
    """Self-consistency gates (run in both modes)."""
    problems = []
    if not report["invariance"]["identical_across_layouts"]:
        problems.append("traced run differs across shard layouts")
    base_p99 = report["baseline"]["p99_us"]
    for shape, rows in report["results"].items():
        by = {r["policy"]: r for r in rows}
        if by["do_nothing"]["p99_us"] < base_p99:
            problems.append(
                f"{shape}: do_nothing p99 {by['do_nothing']['p99_us']} "
                f"below healthy baseline {base_p99} — trace not biting")
        for r in rows:
            if not r["fct_cdf"]:
                problems.append(f"{shape}/{r['policy']}: empty FCT CDF")
    flap = {r["policy"]: r for r in report["results"].get("flap", [])}
    if flap:
        dn = flap["do_nothing"]["p99_us"]
        dr = flap["disable_and_repair"]["p99_us"]
        if dr >= dn:
            problems.append(
                f"flap: disable_and_repair p99 {dr} did not beat "
                f"do_nothing p99 {dn}")
        if flap["disable_and_repair"]["decisions"] == 0:
            problems.append("flap: disable_and_repair never acted")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced scale for CI smoke")
    ap.add_argument("--out", default="BENCH_lossy_fabric.json",
                    help="where to write the JSON report")
    ap.add_argument("--shards", type=int, default=2,
                    help="shard count for the measured runs")
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--fault-seed", type=int, default=7,
                    help="seed of the generated degradation shapes")
    ap.add_argument("--baseline", default=None,
                    help="committed BENCH_lossy_fabric.json to gate "
                         "against (>20%% regression fails; missing or "
                         "corrupt baseline is an error, not a skip)")
    args = ap.parse_args(argv)

    print(f"lossy-fabric benchmark "
          f"({'quick' if args.quick else 'full'} scale)")
    report = run_bench(quick=args.quick, nshards=args.shards,
                       seed=args.seed, trace_seed=args.fault_seed)
    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")

    problems = check(report)
    if args.baseline:
        try:
            gate = check_baseline(report, args.baseline, GATE_METRICS)
        except BaselineError as exc:
            print(f"FAIL: {exc}")
            return 1
        for note in gate.notes:
            print(f"  note: {note}")
        problems.extend(gate.problems)
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# pytest entry point (collected only when explicitly requested)
# ---------------------------------------------------------------------------

def test_lossy_fabric_quick():
    """Smoke: quick scale, all self-consistency gates hold."""
    report = run_bench(quick=True)
    assert not check(report)


if __name__ == "__main__":
    sys.exit(main())
