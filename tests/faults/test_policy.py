"""Health windows + repair policies: folds, modes, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (HealthTracker, PolicyConfig, PolicyEngine,
                          decisions_digest, fold_ewma)
from repro.faults.policy import (MODE_DISABLED, MODE_FAILOVER,
                                 MODE_NORMAL, MODE_TUNED,
                                 TUNED_BACKOFF_SCALE,
                                 TUNED_TIMEOUT_SCALE)

CFG = PolicyConfig(window_us=100.0, recover_windows=2,
                   min_attempts=4, repair_delay_us=500.0)


def _sick_window(h, idx, *, link=(0, 1)):
    """Fill window ``idx`` with clearly unhealthy traffic."""
    t = idx * CFG.window_us + 1.0
    h.record(t, *link, attempts=10, timeouts=8, retries=8, deliveries=2)


def _well_window(h, idx, *, link=(0, 1)):
    t = idx * CFG.window_us + 1.0
    h.record(t, *link, attempts=10, deliveries=10)


# ---------------------------------------------------------------------------
# HealthTracker
# ---------------------------------------------------------------------------

def test_health_windows_close_strictly_before_horizon():
    h = HealthTracker(100.0)
    h.record(50.0, 0, 1, attempts=3, deliveries=3)
    h.record(150.0, 0, 1, attempts=2, timeouts=2)
    # at t=150 only window 0 is closed; window 1 is still open
    assert [w.index for w in h.closed_windows(0, 1, -1,
                                              h.horizon(150.0))] == [0]
    wins = h.closed_windows(0, 1, -1, h.horizon(250.0))
    assert [(w.index, w.attempts, w.timeouts) for w in wins] \
        == [(0, 3, 0), (1, 2, 2)]
    assert wins[1].timeout_rate == 1.0
    assert wins[0].delivery_rate == 1.0


def test_health_totals_merge_commutes():
    a = HealthTracker(100.0)
    b = HealthTracker(100.0)
    a.record(10.0, 0, 1, attempts=5, timeouts=1, deliveries=4)
    b.record(20.0, 0, 1, attempts=3, retries=2, deliveries=3)
    b.record(20.0, 2, 3, attempts=1, deliveries=1)
    ab = HealthTracker.merge_totals([a.link_totals(), b.link_totals()])
    ba = HealthTracker.merge_totals([b.link_totals(), a.link_totals()])
    assert ab == ba
    assert ab[(0, 1)] == {"attempts": 8, "timeouts": 1, "retries": 2,
                          "deliveries": 7}


def test_health_validation():
    with pytest.raises(ValueError):
        HealthTracker(0.0)


# ---------------------------------------------------------------------------
# Policy engines
# ---------------------------------------------------------------------------

def test_engine_validation():
    with pytest.raises(ValueError, match="unknown repair policy"):
        PolicyEngine("reboot_everything")
    with pytest.raises(ValueError, match="window_us"):
        PolicyEngine("do_nothing", PolicyConfig(window_us=100.0),
                     HealthTracker(500.0))


def test_do_nothing_never_acts():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("do_nothing", CFG, h, nnodes=4)
    for i in range(5):
        _sick_window(h, i)
    m = eng.mode_of(0, 1, 600.0)
    assert m.mode == MODE_NORMAL
    assert eng.decisions == []


def test_retransmit_tuning_tunes_and_recovers():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("retransmit_tuning", CFG, h, nnodes=4)
    _sick_window(h, 0)
    m = eng.mode_of(0, 1, 150.0)
    assert m.mode == MODE_TUNED
    assert m.timeout_scale == TUNED_TIMEOUT_SCALE == 0.5
    assert m.backoff_scale == TUNED_BACKOFF_SCALE == 0.25
    # recovery: the EWMA must climb back over the threshold first
    # (window 1 still reads unhealthy), then two consecutive healthy
    # windows revert the tuning
    _well_window(h, 1)
    _well_window(h, 2)
    assert eng.mode_of(0, 1, 350.0).mode == MODE_TUNED
    _well_window(h, 3)
    assert eng.mode_of(0, 1, 450.0).mode == MODE_NORMAL
    assert [d["action"] for d in eng.decisions] == ["tune", "untune"]


def test_disable_and_repair_detours_then_restores():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("disable_and_repair", CFG, h, nnodes=4)
    _sick_window(h, 0)
    m = eng.mode_of(0, 1, 150.0)
    assert m.mode == MODE_DISABLED
    assert m.via == 2                       # smallest non-endpoint
    assert m.until_us == 100.0 + CFG.repair_delay_us
    # both decisions (disable + eager restore) are already recorded
    assert [d["action"] for d in eng.decisions] == ["disable", "restore"]
    # querying past the repair timer sees the link back in service
    assert eng.mode_of(0, 1, m.until_us).mode == MODE_NORMAL
    # ... and a fresh flap after restore trips it again
    idx = int(m.until_us // CFG.window_us) + 1
    _sick_window(h, idx)
    t = (idx + 1) * CFG.window_us + 10.0
    assert eng.mode_of(0, 1, t).mode == MODE_DISABLED
    assert [d["action"] for d in eng.decisions] \
        == ["disable", "restore", "disable", "restore"]


def test_disable_without_alternate_hop_has_no_via():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("disable_and_repair", CFG, h, nnodes=2)
    _sick_window(h, 0)
    m = eng.mode_of(0, 1, 150.0)
    assert m.mode == MODE_DISABLED and m.via is None


def test_path_failover_flips_and_fails_back():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("path_failover", CFG, h, nnodes=4)
    _sick_window(h, 0)
    assert eng.mode_of(0, 1, 150.0).mode == MODE_FAILOVER
    for i in (1, 2, 3):
        _well_window(h, i)
    assert eng.mode_of(0, 1, 450.0).mode == MODE_NORMAL
    assert [d["action"] for d in eng.decisions] \
        == ["failover", "failback"]


def test_small_windows_cannot_flap_policies():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("path_failover", CFG, h, nnodes=4)
    # 2 attempts, both timeouts — below min_attempts, stays normal
    h.record(10.0, 0, 1, attempts=2, timeouts=2)
    assert eng.mode_of(0, 1, 150.0).mode == MODE_NORMAL
    assert eng.decisions == []


def test_horizon_bounds_the_knowledge_used():
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("path_failover", CFG, h, nnodes=4)
    _sick_window(h, 2)
    # planning at horizon 150: window 2 is not closed yet, so even a
    # query about t=900 must answer from pre-sickness knowledge
    assert eng.mode_of(0, 1, 900.0, horizon=150.0).mode == MODE_NORMAL
    # same query with the horizon past window 2 sees the failover
    assert eng.mode_of(0, 1, 900.0, horizon=350.0).mode == MODE_FAILOVER


def test_fold_is_deterministic_across_query_patterns():
    def run(queries):
        h = HealthTracker(CFG.window_us)
        eng = PolicyEngine("disable_and_repair", CFG, h, nnodes=4)
        for i in (0, 1, 4, 9, 10):
            _sick_window(h, i)
        for i in (2, 3, 5, 6, 7, 8):
            _well_window(h, i)
        for t in queries:
            eng.mode_of(0, 1, t)
        return eng.decisions

    # querying every window vs. only the end produces one decision log
    dense = run([float(t) for t in range(50, 1200, 50)])
    sparse = run([1150.0])
    assert dense == sparse
    assert decisions_digest(dense) == decisions_digest(sparse)


# ---------------------------------------------------------------------------
# Decision digests
# ---------------------------------------------------------------------------

def test_decisions_digest_is_order_independent_and_mergeable():
    d1 = {"t_us": 100.0, "src": 0, "dst": 1, "action": "tune",
          "mode": MODE_TUNED, "until_us": 0.0, "policy": "x"}
    d2 = {"t_us": 200.0, "src": 2, "dst": 3, "action": "disable",
          "mode": MODE_DISABLED, "until_us": 700.0, "policy": "x"}
    assert decisions_digest([d1, d2]) == decisions_digest([d2, d1])
    assert decisions_digest([d1, d2]) == PolicyEngine.merge_digests(
        [decisions_digest([d1]), decisions_digest([d2])])
    assert decisions_digest([]) == 0
    assert decisions_digest([d1]) != decisions_digest([d2])


def test_on_decision_hook_sees_every_decision():
    seen = []
    h = HealthTracker(CFG.window_us)
    eng = PolicyEngine("retransmit_tuning", CFG, h, nnodes=4,
                       on_decision=seen.append)
    _sick_window(h, 0)
    eng.mode_of(0, 1, 150.0)
    assert seen == eng.decisions


# ---------------------------------------------------------------------------
# EWMA fold properties
# ---------------------------------------------------------------------------

@given(rates=st.lists(st.floats(0.0, 1.0), max_size=12),
       alpha=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_ewma_fold_stays_bounded_and_is_deterministic(rates, alpha):
    e = 1.0
    for r in rates:
        e = fold_ewma(e, r, alpha)
        assert 0.0 <= e <= 1.0
    e2 = 1.0
    for r in rates:
        e2 = fold_ewma(e2, r, alpha)
    assert e == e2


@given(rates=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
       alpha=st.floats(0.01, 1.0),
       cut=st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_ewma_fold_resumes_from_any_split(rates, alpha, cut):
    # the memoized monotone fold: folding [a | b] equals folding a,
    # then continuing with b from the memoized value
    cut = min(cut, len(rates))
    whole = 1.0
    for r in rates:
        whole = fold_ewma(whole, r, alpha)
    part = 1.0
    for r in rates[:cut]:
        part = fold_ewma(part, r, alpha)
    for r in rates[cut:]:
        part = fold_ewma(part, r, alpha)
    assert part == whole
