"""The shared --baseline gate: tolerances, cross-mode, named errors."""

import pytest

from repro.campaign.artifacts import atomic_write_json
from repro.campaign.gate import (BaselineError, GateMetric,
                                 check_baseline)


def _speedups(doc):
    return [(f"nt={r['nthreads']}", r["speedup"])
            for r in doc.get("results", [])]


SPEEDUP = GateMetric("speedup", _speedups)
TAIL = GateMetric("p99", lambda d: [("all", d.get("p99", 0.0))],
                  higher_is_better=False)
QUICK_ONLY = GateMetric("abs_latency",
                        lambda d: [("all", d.get("lat", 1.0))],
                        skip_cross_mode=True)


def _write(tmp_path, doc, name="base.json"):
    return atomic_write_json(str(tmp_path / name), doc)


def test_within_tolerance_passes(tmp_path):
    path = _write(tmp_path, {"mode": "full",
                             "results": [{"nthreads": 64,
                                          "speedup": 2.0}]})
    report = {"mode": "full",
              "results": [{"nthreads": 64, "speedup": 1.7}]}
    res = check_baseline(report, path, [SPEEDUP])     # floor 1.6
    assert res.ok and not res.notes


def test_regression_beyond_tolerance_fails(tmp_path):
    path = _write(tmp_path, {"mode": "full",
                             "results": [{"nthreads": 64,
                                          "speedup": 2.0}]})
    report = {"mode": "full",
              "results": [{"nthreads": 64, "speedup": 1.5}]}
    res = check_baseline(report, path, [SPEEDUP])
    assert not res.ok
    assert "nt=64" in res.problems[0]
    assert "below baseline" in res.problems[0]


def test_lower_is_better_direction(tmp_path):
    path = _write(tmp_path, {"mode": "full", "p99": 100.0})
    ok = check_baseline({"mode": "full", "p99": 115.0}, path, [TAIL])
    bad = check_baseline({"mode": "full", "p99": 130.0}, path, [TAIL])
    assert ok.ok
    assert not bad.ok and "above baseline" in bad.problems[0]


def test_cross_mode_widens_tolerance(tmp_path):
    path = _write(tmp_path, {"mode": "full",
                             "results": [{"nthreads": 64,
                                          "speedup": 2.0}]})
    # 1.5 fails the 20% gate but passes the widened 35% one.
    report = {"mode": "quick",
              "results": [{"nthreads": 64, "speedup": 1.5}]}
    res = check_baseline(report, path, [SPEEDUP])
    assert res.ok
    assert any("mode mismatch" in n for n in res.notes)


def test_cross_mode_skips_flagged_metrics(tmp_path):
    path = _write(tmp_path, {"mode": "full", "lat": 1.0})
    res = check_baseline({"mode": "quick", "lat": 99.0}, path,
                         [QUICK_ONLY])
    assert res.ok
    assert any("not comparable across mix modes" in n
               for n in res.notes)
    # Same mode: the metric gates for real.
    res = check_baseline({"mode": "full", "lat": 0.5}, path,
                         [QUICK_ONLY])
    assert not res.ok


def test_label_missing_from_baseline_is_note_not_failure(tmp_path):
    path = _write(tmp_path, {"mode": "full",
                             "results": [{"nthreads": 64,
                                          "speedup": 2.0}]})
    report = {"mode": "full",
              "results": [{"nthreads": 64, "speedup": 2.0},
                          {"nthreads": 1024, "speedup": 0.1}]}
    res = check_baseline(report, path, [SPEEDUP])
    assert res.ok
    assert any("nt=1024" in n and "not in baseline" in n
               for n in res.notes)


def test_missing_baseline_is_named_error(tmp_path):
    with pytest.raises(BaselineError, match="does not exist"):
        check_baseline({"mode": "full"},
                       str(tmp_path / "nope.json"), [SPEEDUP])


def test_corrupt_baseline_is_named_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"mode": "full", ', encoding="utf-8")
    with pytest.raises(BaselineError, match="corrupt or truncated"):
        check_baseline({"mode": "full"}, str(path), [SPEEDUP])


# ---------------------------------------------------------------------------
# The migrated bench gates keep their semantics
# ---------------------------------------------------------------------------

def _sim_core_doc(mode, speedups, trend):
    return {"mode": mode, "pooled_eps_trend": trend,
            "results": [{"nthreads": nt, "speedup": s,
                         "pooled_events_per_sec": 1000}
                        for nt, s in speedups]}


def test_sim_core_gate_same_numbers_as_before(tmp_path):
    # The two ratios the retired sim-core bench gated: per-thread-count
    # pooled/legacy speedup and the events/sec trend across the sweep.
    metrics = [SPEEDUP,
               GateMetric("pooled_eps_trend",
                          lambda d: [("trend", d["pooled_eps_trend"])])]

    def problems(report, baseline):
        return check_baseline(report, baseline, metrics).problems

    base = _sim_core_doc("full", [(64, 2.0), (256, 2.5)], 1.0)
    path = _write(tmp_path, base)
    # Same mode: 20% tolerance. 1.99 vs floor 2.0 fails at nt=256.
    bad = _sim_core_doc("full", [(64, 2.0), (256, 1.99)], 1.0)
    assert problems(bad, path)
    ok = _sim_core_doc("full", [(64, 1.61), (256, 2.01)], 0.81)
    assert not problems(ok, path)
    # Cross-mode: widened to 35%, so 1.7 at nt=256 passes.
    quick = _sim_core_doc("quick", [(64, 1.4), (256, 1.7)], 0.7)
    assert not problems(quick, path)
    # Missing baseline is no longer a silent skip.
    with pytest.raises(BaselineError):
        problems(ok, str(tmp_path / "gone.json"))


def test_kv_service_gate_metrics(tmp_path):
    import benchmarks.bench_kv_service as bench

    def doc(mode, hit, miss_p50=16.4, hit_p50=11.97):
        return {"mode": mode,
                "results": [{"zipf_s": 0.9, "hit_rate": hit,
                             "miss_p50_us": miss_p50,
                             "hit_p50_us": hit_p50}]}

    path = _write(tmp_path, doc("full", 0.44))
    res = check_baseline(doc("full", 0.43), path, bench.GATE_METRICS)
    assert res.ok
    res = check_baseline(doc("full", 0.30), path, bench.GATE_METRICS)
    assert not res.ok and "hit_rate" in res.problems[0]
    # Separation collapse (hit path no faster than miss) also gates.
    res = check_baseline(doc("full", 0.44, miss_p50=12.0), path,
                         bench.GATE_METRICS)
    assert not res.ok and "one_sided_speedup" in res.problems[0]


def test_lossy_gate_skips_cross_mode(tmp_path):
    import benchmarks.bench_lossy_fabric as bench

    def doc(mode, dn_p99, dr_p99):
        return {"mode": mode, "results": {"flap": [
            {"policy": "do_nothing", "p99_us": dn_p99},
            {"policy": "disable_and_repair", "p99_us": dr_p99}]}}

    path = _write(tmp_path, doc("full", 54.0, 19.8))
    res = check_baseline(doc("full", 54.0, 40.0), path,
                         bench.GATE_METRICS)
    assert not res.ok and "policy_benefit_p99" in res.problems[0]
    # Quick runs compressed traces: skipped with a note, not compared.
    res = check_baseline(doc("quick", 25.0, 25.0), path,
                         bench.GATE_METRICS)
    assert res.ok
    assert any("not comparable" in n for n in res.notes)
