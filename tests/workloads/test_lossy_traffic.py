"""Lossy-fabric traffic: layout invariance, policy effects, plumbing.

The traced issue path precomputes every request's whole retry chain
from pure fate hashes at issue time, so the same trace + seed must
produce bit-identical histograms, per-client digests, per-link health
totals and policy decisions whatever shard layout or backend executes
the run.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, LinkRule, TraceSegment, make_trace
from repro.workloads.kv_traffic import (TrafficParams, hist_cdf,
                                        run_kv_traffic)

pytestmark = pytest.mark.shard

#: A fabric that is definitely sick from t=0 on two specific links —
#: no dependence on generator phase, so even short runs see drops.
SICK = FaultPlan(seed=5, name="sick", links=(
    LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
    LinkRule(src=1, dst=0, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
))


def _params(**kw):
    kw.setdefault("nnodes", 4)
    kw.setdefault("nclients", 16)
    kw.setdefault("requests", 12_000)
    kw.setdefault("seed", 11)
    return TrafficParams(**kw)


def _fingerprint(res):
    fp = {
        "hist": res.hist.tobytes(),
        "hit": res.hist_hit.tobytes(),
        "miss": res.hist_miss.tobytes(),
        "digests": res.digests,
        "counts": (res.requests, res.hits, res.misses, res.conns),
    }
    if "links" in res.extra:
        fp["links"] = res.extra["links"]
    if "policy" in res.extra:
        fp["policy_digest"] = res.extra["policy"]["digest"]
        fp["decisions"] = res.extra["policy"]["decisions"]
    return fp


# ---------------------------------------------------------------------------
# Layout invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["", "do_nothing",
                                    "disable_and_repair"])
def test_traced_run_is_shard_invariant(policy):
    p = _params(fault_plan=SICK.to_json(), repair_policy=policy)
    ref = _fingerprint(run_kv_traffic(p, 1))
    for nshards in (2, 4):
        assert _fingerprint(run_kv_traffic(p, nshards)) == ref
    # sickness actually bit: the sick links saw timeouts
    links = ref["links"]
    assert links[(0, 1)]["timeouts"] > 0


def test_traced_run_is_backend_invariant():
    p = _params(fault_plan=SICK.to_json(),
                repair_policy="retransmit_tuning")
    a = _fingerprint(run_kv_traffic(p, 2, mode="inproc"))
    b = _fingerprint(run_kv_traffic(p, 2, mode="mp"))
    assert a == b


def test_zero_trace_is_bit_identical_to_no_trace():
    # "" and an empty FaultPlan take the exact pre-fault code path
    base = run_kv_traffic(_params(), 2)
    empty = run_kv_traffic(_params(fault_plan=FaultPlan().to_json()), 2)
    assert np.array_equal(base.hist, empty.hist)
    assert base.digests == empty.digests
    assert "links" not in base.extra and "links" not in empty.extra
    assert "policy" not in empty.extra


# ---------------------------------------------------------------------------
# Policy effects
# ---------------------------------------------------------------------------

def test_disable_and_repair_beats_do_nothing_under_flap():
    # the acceptance-gate comparison at test scale: the flapping link's
    # down phases dominate the do_nothing tail; detouring around them
    # must win at p99
    tr = make_trace("flap", 4, seed=7, horizon_us=4000.0,
                    period_us=1500.0, down_us=600.0)
    runs = {}
    for policy in ("do_nothing", "disable_and_repair"):
        p = _params(requests=64_000, fault_plan=tr.to_json(),
                    repair_policy=policy)
        runs[policy] = run_kv_traffic(p, 2)
        assert hist_cdf(runs[policy].hist)      # a CDF to render
    dn = runs["do_nothing"].quantiles()["p99_us"]
    dr = runs["disable_and_repair"].quantiles()["p99_us"]
    assert dr < dn
    assert runs["disable_and_repair"].extra["policy"]["decisions"]
    # the control arm never acts
    assert runs["do_nothing"].extra["policy"]["decisions"] == []


def test_every_degradation_shape_hurts_the_do_nothing_tail():
    # a shape that does not bite compares nothing: each of the four
    # must push the control arm's p99 above the healthy fabric's
    healthy = run_kv_traffic(_params(), 2).quantiles()["p99_us"]
    for shape, kw in (("flap", dict(period_us=500.0, down_us=200.0)),
                      ("burst", dict(bursts=3, burst_us=150.0)),
                      ("degrade", {}), ("gray", {})):
        tr = make_trace(shape, 4, seed=7, horizon_us=1500.0, **kw)
        res = run_kv_traffic(_params(fault_plan=tr.to_json(),
                                     repair_policy="do_nothing"), 2)
        assert res.quantiles()["p99_us"] > healthy, shape
        assert hist_cdf(res.hist), shape       # a CDF to compare


def test_one_sided_path_beats_am_and_hit_rate_rises_with_skew():
    # the service-level view of the paper's comparison: a cache hit
    # (one-sided) skips dispatch + SVD lookup + handler CPU, so its
    # quantiles sit below the miss (AM) path's; a hotter key
    # distribution concentrates buckets into the per-client LRU
    runs = {s: run_kv_traffic(_params(zipf_s=s), 2) for s in (0.9, 1.2)}
    assert runs[1.2].hit_rate > runs[0.9].hit_rate
    for res in runs.values():
        q = res.quantiles()
        assert 0 < q["hit_p50_us"] < q["miss_p50_us"]


def test_exhausted_requests_are_counted_not_hung():
    # a link that never delivers: every request crossing it exhausts
    # its retry budget and lands in the failure count, and the run
    # still terminates with every op accounted for
    dead = FaultPlan(seed=1, name="dead", links=(
        LinkRule(src=0, dst=1, segments=(
            TraceSegment(t_start=0.0, t_end=1e9, loss=1.0),)),))
    p = _params(requests=2_000, fault_plan=dead.to_json())
    res = run_kv_traffic(p, 2)
    failures = sum(o["counts"]["failures"]
                   for o in res.extra["run"].outputs)
    assert failures > 0
    # completions + exhaustions account for every issued request
    assert res.requests + failures == 2_000


def test_policy_without_trace_is_rejected():
    with pytest.raises(ValueError, match="needs a fault plan"):
        run_kv_traffic(_params(repair_policy="do_nothing"), 2)


def test_unknown_policy_is_rejected():
    p = _params(fault_plan=SICK.to_json(), repair_policy="percussive")
    with pytest.raises(ValueError, match="unknown repair policy"):
        run_kv_traffic(p, 2)


# ---------------------------------------------------------------------------
# Health + decision plumbing
# ---------------------------------------------------------------------------

def test_link_totals_and_decisions_ride_the_merge():
    p = _params(fault_plan=SICK.to_json(),
                repair_policy="retransmit_tuning",
                slo_target_us=30.0)
    res = run_kv_traffic(p, 4)
    links = res.extra["links"]
    # health observed on the sick request link, attributed src->dst
    assert links[(0, 1)]["attempts"] >= links[(0, 1)]["deliveries"]
    assert links[(0, 1)]["retries"] > 0
    pol = res.extra["policy"]
    assert pol["name"] == "retransmit_tuning"
    assert pol["decisions"], "sick links never tripped the policy"
    ts = [d["t_us"] for d in pol["decisions"]]
    assert ts == sorted(ts)
    # policy actions surface in the merged SLO windows
    assert res.extra["slo"]["summary"]["policy_actions"] \
        == len(pol["decisions"])
