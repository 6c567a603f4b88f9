"""SLO monitor: window bucketing, burn-rate math, merge invariance
(the property that makes sharded monitoring layout-invariant) and the
threshold anomaly detectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.slo import (
    HIST_EDGES,
    SLO_HIST_BINS,
    SLOMonitor,
    detect_anomalies,
    hist_quantile,
    render_slo,
    slo_summary,
    window_stats,
)
from repro.workloads.kv_traffic import TrafficResult, hist_edges


def test_monitor_validation():
    with pytest.raises(ValueError):
        SLOMonitor(0.0)
    with pytest.raises(ValueError):
        SLOMonitor(10.0, window_us=0.0)
    with pytest.raises(ValueError):
        SLOMonitor(10.0, slo_quantile=1.0)


def test_window_bucketing_and_counters():
    mon = SLOMonitor(target_us=10.0, window_us=100.0)
    mon.observe(5.0, 4.0, hit=True)
    mon.observe(99.9, 20.0, inflight=7)          # violation
    mon.observe(100.0, 6.0, retried=True)        # next window
    assert sorted(mon.windows) == [0, 1]
    w0, w1 = mon.windows[0], mon.windows[1]
    assert (w0.count, w0.violations, w0.hits, w0.max_inflight) \
        == (2, 1, 1, 7)
    assert (w1.count, w1.violations, w1.retries) == (1, 0, 1)


def test_burn_rate_semantics():
    # At p99, budget is 1%: one violation in 100 burns exactly 1.0.
    mon = SLOMonitor(target_us=10.0, window_us=1e9, slo_quantile=0.99)
    for i in range(99):
        mon.observe(float(i), 1.0)
    mon.observe(99.0, 100.0)
    (w,) = mon.sorted_windows()
    assert mon.burn_rate(w) == pytest.approx(1.0)
    # all-violating window burns 1/budget = 100x
    mon2 = SLOMonitor(target_us=0.5, window_us=1e9)
    mon2.observe(0.0, 1.0)
    assert mon2.burn_rate(mon2.sorted_windows()[0]) \
        == pytest.approx(100.0)


def test_window_quantiles_bound_the_samples():
    mon = SLOMonitor(target_us=50.0, window_us=1e9)
    vals = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    for i, v in enumerate(vals):
        mon.observe(float(i), v)
    (w,) = mon.sorted_windows()
    # log-bin upper edges: quantile >= true value, within one bin
    assert w.p50() >= 2.0
    assert w.p99() >= 32.0
    assert w.p99() <= 32.0 * 1.07   # bin width ~6.5% at 256 bins
    assert hist_quantile([0] * SLO_HIST_BINS, 0.99) == 0.0


def test_window_run_and_traffic_quantiles_read_one_edge_table():
    # One bin-edge table: a one-hot histogram gives the same quantile as
    # a window, as a run and as a traffic result, for every bin.
    assert hist_edges() is HIST_EDGES and not HIST_EDGES.flags.writeable
    for i in range(SLO_HIST_BINS):
        hist = [0] * SLO_HIST_BINS
        hist[i] = 1
        w = {"index": 0, "count": 1, "violations": 0, "hits": 0,
             "retries": 0, "max_inflight": 0, "hist": hist}
        window = window_stats(w, target_us=1.0, window_us=1.0)
        run = slo_summary([w], target_us=1.0, window_us=1.0)
        counts = np.array(hist, dtype=np.int64)
        traffic = TrafficResult(
            requests=1, hits=0, misses=1, conns=0, puts=0, gets=1,
            hist=counts, hist_hit=counts, hist_miss=counts, digests={},
            now=0.0, events=0).quantiles()
        for key in ("p50_us", "p99_us"):
            assert (window[key] == run[key] == traffic[key]
                    == float(HIST_EDGES[i + 1])), (i, key)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e5), st.floats(0.2, 1e4),
                          st.booleans()),
                min_size=1, max_size=300),
       st.integers(1, 4))
def test_merge_is_layout_invariant(obs, nshards):
    """Splitting one observation stream across N monitors and merging
    their window exports equals the single-monitor export — the sharded
    SLO contract."""
    whole = SLOMonitor(target_us=25.0, window_us=500.0)
    parts = [SLOMonitor(target_us=25.0, window_us=500.0)
             for _ in range(nshards)]
    for i, (t, lat, hit) in enumerate(obs):
        whole.observe(t, lat, hit=hit, inflight=i % 5)
        parts[i % nshards].observe(t, lat, hit=hit, inflight=i % 5)
    merged = SLOMonitor.merge_window_dicts([p.export() for p in parts])
    assert merged == whole.export()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.2, 1e4), min_size=1, max_size=200))
def test_summary_burn_rate_matches_violation_fraction(lats):
    target = 25.0
    mon = SLOMonitor(target_us=target, window_us=100.0)
    for i, lat in enumerate(lats):
        mon.observe(float(i), lat)
    windows = mon.export()
    s = slo_summary(windows, target_us=target, window_us=100.0)
    frac = sum(1 for v in lats if v > target) / len(lats)
    assert s["count"] == len(lats)
    assert s["violation_frac"] == pytest.approx(frac)
    assert s["burn_rate"] == pytest.approx(frac / 0.01)
    assert 0.0 <= s["hit_rate"] <= 1.0
    # per-window violations sum to the total
    stats = [window_stats(w, target_us=target, window_us=100.0)
             for w in windows]
    assert sum(x["violations"] for x in stats) == s["violations"]
    if s["violations"]:
        assert s["worst_window"]["burn_rate"] \
            == pytest.approx(max(x["burn_rate"] for x in stats))


def _win(index, count, *, violations=0, hits=0, retries=0,
         max_inflight=0, lat_bin=None, lat_n=None):
    hist = [0] * SLO_HIST_BINS
    if lat_bin is not None:
        hist[lat_bin] = lat_n if lat_n is not None else count
    return {"index": index, "count": count, "violations": violations,
            "hits": hits, "retries": retries,
            "max_inflight": max_inflight, "hist": hist}


def test_detect_retry_storm():
    wins = [_win(0, 100, retries=2, lat_bin=10),
            _win(1, 100, retries=20, lat_bin=10)]
    flags = detect_anomalies(wins, target_us=10.0, window_us=100.0)
    storms = [f for f in flags if f["kind"] == "retry_storm"]
    assert [f["index"] for f in storms] == [1]
    assert storms[0]["value"] == pytest.approx(0.2)
    assert storms[0]["t0_us"] == 100.0


def test_detect_backlog_spike():
    wins = [_win(i, 50, max_inflight=10, lat_bin=10) for i in range(5)]
    wins.append(_win(5, 50, max_inflight=90, lat_bin=10))
    flags = detect_anomalies(wins, target_us=10.0, window_us=100.0)
    spikes = [f for f in flags if f["kind"] == "backlog_spike"]
    assert [f["index"] for f in spikes] == [5]
    assert spikes[0]["value"] == 90.0


def test_detect_p99_regression_is_causal():
    # 4 calm windows around bin 50, then a tail blowout at bin 200.
    wins = [_win(i, 100, lat_bin=50) for i in range(4)]
    wins.append(_win(4, 100, lat_bin=200))
    flags = detect_anomalies(wins, target_us=1e6, window_us=100.0)
    regs = [f for f in flags if f["kind"] == "p99_regression"]
    assert [f["index"] for f in regs] == [4]
    # the *first* windows can never be flagged (no warmup history)
    early = detect_anomalies(wins[:3], target_us=1e6, window_us=100.0)
    assert not [f for f in early if f["kind"] == "p99_regression"]


def test_detector_baselines_are_ceil_rank_medians():
    # An even-length history has two middle values; the baseline is the
    # upper one (util.quantiles.quantile at 0.5), not their mean.
    lo = hist_quantile(_win(0, 100, lat_bin=40)["hist"], 0.99)
    hi = hist_quantile(_win(0, 100, lat_bin=60)["hist"], 0.99)
    wins = [_win(i, 100, lat_bin=b)
            for i, b in enumerate((40, 40, 60, 60))]
    wins.append(_win(4, 100, lat_bin=200))
    flags = detect_anomalies(wins, target_us=1e6, window_us=100.0,
                             warmup_windows=4)
    (reg,) = [f for f in flags if f["kind"] == "p99_regression"]
    assert reg["threshold"] == 2.0 * hi != 2.0 * (lo + hi) / 2
    # The run-median peak of (10, 10, 30, 70) is 30, so the 70 window
    # stays under 3 x 30 (an interpolated median, 20, would flag it).
    wins = [_win(i, 50, max_inflight=m, lat_bin=10)
            for i, m in enumerate((10, 10, 30, 70))]
    flags = detect_anomalies(wins, target_us=10.0, window_us=100.0)
    assert not [f for f in flags if f["kind"] == "backlog_spike"]


def test_detectors_quiet_on_steady_traffic():
    wins = [_win(i, 100, hits=40, max_inflight=12, lat_bin=40)
            for i in range(8)]
    assert detect_anomalies(wins, target_us=1e6, window_us=100.0) == []


def test_render_slo_mentions_flags_and_truncation():
    wins = [_win(i, 10, lat_bin=40) for i in range(20)]
    s = slo_summary(wins, target_us=10.0, window_us=100.0)
    flags = [{"kind": "retry_storm", "index": 3, "t0_us": 300.0,
              "t1_us": 400.0, "value": 0.5, "threshold": 0.05}]
    text = render_slo(wins, s, flags, max_rows=5)
    assert "retry_storm" in text
    assert "15 more window(s)" in text
    quiet = render_slo(wins[:2], s, [])
    assert "no anomaly flags" in quiet


def test_policy_actions_ride_windows_merge_and_summary():
    mon = SLOMonitor(target_us=10.0, window_us=100.0)
    mon.observe(5.0, 4.0)
    mon.observe_policy_action(50.0)
    mon.observe_policy_action(150.0)   # next window, no completions
    windows = mon.export()
    by_idx = {w["index"]: w for w in windows}
    assert by_idx[0]["policy_actions"] == 1
    assert by_idx[1]["policy_actions"] == 1
    # merging shard exports sums the action counters
    other = SLOMonitor(target_us=10.0, window_us=100.0)
    other.observe_policy_action(60.0)
    merged = SLOMonitor.merge_window_dicts([windows, other.export()])
    m = {w["index"]: w for w in merged}
    assert m[0]["policy_actions"] == 2
    s = slo_summary(merged, target_us=10.0, window_us=100.0)
    assert s["policy_actions"] == 3


def test_detect_policy_flap():
    calm = _win(0, 50, lat_bin=10)
    busy = _win(1, 50, lat_bin=10)
    busy["policy_actions"] = 4
    mild = _win(2, 50, lat_bin=10)
    mild["policy_actions"] = 3         # below the default threshold
    flags = detect_anomalies([calm, busy, mild], target_us=10.0,
                             window_us=100.0)
    flaps = [f for f in flags if f["kind"] == "policy_flap"]
    assert [f["index"] for f in flaps] == [1]
    assert flaps[0]["value"] == 4.0
