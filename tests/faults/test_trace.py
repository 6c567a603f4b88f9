"""Time-evolving link rules: segments, composition, generators,
resolution."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (FaultPlan, LinkRule, PROFILES, TraceSegment,
                          fate_u01, make_trace, resolve_profile)
from repro.faults.trace import TRACE_SHAPES, fate_hash


def the_link(plan):
    """The one concrete link a generated shape degrades."""
    (rule,) = plan.links
    return rule.src, rule.dst


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

def test_segment_validation():
    with pytest.raises(ValueError):
        TraceSegment(t_start=10.0, t_end=10.0)
    with pytest.raises(ValueError):
        TraceSegment(t_start=-1.0, t_end=5.0)
    with pytest.raises(ValueError):
        TraceSegment(t_start=0.0, t_end=5.0, loss=1.5)
    with pytest.raises(ValueError):
        TraceSegment(t_start=0.0, t_end=5.0, delay_us=-1.0)


def test_segment_constant_and_lerp():
    const = TraceSegment(t_start=0.0, t_end=100.0, loss=0.4)
    assert const.at(0.0)[:3] == (0.4, 0.0, 0.0)
    assert const.at(99.0)[:3] == (0.4, 0.0, 0.0)
    ramp = TraceSegment(t_start=0.0, t_end=100.0, loss=0.0,
                        loss_end=0.8, delay_us=0.0, delay_end_us=40.0)
    assert ramp.at(0.0)[:3] == (0.0, 0.0, 0.0)
    assert ramp.at(50.0)[:3] == pytest.approx((0.4, 0.0, 20.0))
    assert ramp.at(100.0)[:3] == pytest.approx((0.8, 0.0, 40.0))


def test_overlapping_segments_compose():
    # Losses compose independently, delays add.
    rule = LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=100.0, loss=0.5, delay_us=3.0),
        TraceSegment(t_start=50.0, t_end=150.0, loss=0.5, delay_us=4.0),
    ))
    assert rule.at(25.0)[:3] == pytest.approx((0.5, 0.0, 3.0))
    assert rule.at(75.0)[:3] == pytest.approx((0.75, 0.0, 7.0))
    assert rule.at(125.0)[:3] == pytest.approx((0.5, 0.0, 4.0))
    assert rule.at(200.0) == (0.0, 0.0, 0.0, 0.0, ())


def test_drop_prob_combines_loss_and_corruption():
    tr = FaultPlan(links=(LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=100.0, loss=0.5,
                     corrupt=0.5),)),))
    assert tr.drop_prob(0, 1, 10.0) == pytest.approx(0.75)
    assert tr.drop_prob(1, 0, 10.0) == 0.0     # direction matters
    assert tr.drop_prob(0, 1, 200.0) == 0.0    # after the window


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_trace_json_roundtrip():
    tr = make_trace("degrade", 8, 5)
    back = FaultPlan.from_json(tr.to_json())
    assert back == tr
    # inf endpoints survive the trip
    open_ended = FaultPlan(seed=2, links=(LinkRule(segments=(
        TraceSegment(t_start=10.0, t_end=math.inf, loss=0.2),)),))
    assert FaultPlan.from_json(open_ended.to_json()) == open_ended


#: The two documents of the deleted second fault language: a marked
#: link trace, and a static plan whose link rules say kind/prob.
LEGACY_TRACE = ('{"kind": "link-trace", "seed": 1, "links": [{"src": 0, '
                '"dst": 1, "segments": [{"t_start": 0.0, "t_end": 9.0, '
                '"loss": 0.5}]}]}')
LEGACY_PLAN = ('{"seed": 1, "links": [{"kind": "drop", "prob": 0.05, '
               '"scope": "both"}]}')


def test_trace_json_rejects_wrong_kind_and_unknown_keys():
    # There is one document now: the old marker is just an unknown key.
    with pytest.raises(ValueError, match=r"unknown fault-plan keys.*'kind'"):
        FaultPlan.from_json(LEGACY_TRACE)
    with pytest.raises(ValueError, match=r"unknown fault-plan keys.*'bogus'"):
        FaultPlan.from_json('{"seed": 1, "links": [], "bogus": 2}')


def test_sniff_trace_json():
    # Nothing sniffs documents apart any more: a plan carries no marker
    # and a marked one is rejected whatever else it holds.
    for plan in (FaultPlan(), PROFILES["drop"], make_trace("gray", 8, 1)):
        assert "kind" not in json.loads(plan.to_json())
    with pytest.raises(ValueError, match="'kind'"):
        FaultPlan.from_json('{"kind": "link-trace"}')
    with pytest.raises(ValueError):
        FaultPlan.from_json("not json at all")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
def test_generators_bite_inside_the_horizon(shape):
    tr = make_trace(shape, 8, seed=3, horizon_us=10_000.0)
    assert tr.name == shape
    src, dst = the_link(tr)
    assert 0 <= src < 8 and 0 <= dst < 8 and src != dst
    worst = max(tr.drop_prob(src, dst, t)
                for t in range(0, 10_000, 25))
    assert worst > 0.0
    # and nothing outside the horizon
    assert tr.drop_prob(src, dst, 10_001.0) == 0.0


def test_generators_are_seed_deterministic():
    assert make_trace("flap", 8, 7) == make_trace("flap", 8, 7)
    assert make_trace("flap", 8, 7) != make_trace("flap", 8, 8)


def test_make_trace_unknown_shape():
    with pytest.raises(ValueError, match="unknown trace shape"):
        make_trace("meteor", 8, 0)
    # a shape degrades one link: a cluster without one is named, not a
    # numpy range error
    with pytest.raises(ValueError, match="at least 2 nodes"):
        make_trace("flap", 1, 0)


# ---------------------------------------------------------------------------
# Fate hashing
# ---------------------------------------------------------------------------

def test_fate_u01_is_pure_and_order_sensitive():
    assert fate_u01(1, 2, 3) == fate_u01(1, 2, 3)
    assert fate_u01(1, 2, 3) != fate_u01(3, 2, 1)
    assert 0.0 <= fate_u01(0) < 1.0


@given(st.lists(st.integers(min_value=0, max_value=2 ** 62),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_fate_hash_stays_in_64_bits_and_spreads(keys):
    h = fate_hash(*keys)
    assert 0 <= h < 2 ** 64
    assert fate_hash(*keys) == h
    # flipping any one key moves the hash (avalanche sanity)
    bumped = list(keys)
    bumped[0] += 1
    assert fate_hash(*bumped) != h


# ---------------------------------------------------------------------------
# Resolution: one resolver, and the legacy documents are named rejections
# ---------------------------------------------------------------------------

def test_resolve_trace_by_shape_inline_and_file(tmp_path):
    tr = resolve_profile("flap", fault_seed=7, nnodes=8)
    assert tr == make_trace("flap", 8, 7)
    inline = resolve_profile(tr.to_json())
    assert inline == tr
    path = tmp_path / "trace.json"
    path.write_text(tr.to_json(), encoding="utf-8")
    assert resolve_profile(str(path)) == tr
    # seed override applies to files too
    assert resolve_profile(str(path), fault_seed=99).seed == 99


def test_resolve_trace_rejects_fault_plan():
    with pytest.raises(ValueError, match=r"links\[0\].*'kind', 'prob'"):
        resolve_profile(LEGACY_PLAN)


def test_resolve_trace_rejects_fault_plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(LEGACY_PLAN, encoding="utf-8")
    with pytest.raises(ValueError, match=r"links\[0\].*'kind', 'prob'"):
        resolve_profile(str(path))


def test_resolve_trace_unknown_name():
    with pytest.raises(ValueError, match="unknown fault profile.*flap"):
        resolve_profile("nope", nnodes=8)
    # a shape needs a cluster to pick its link from
    with pytest.raises(ValueError, match="at least 2 nodes"):
        resolve_profile("flap")


def test_resolve_profile_rejects_link_trace():
    with pytest.raises(ValueError, match=r"unknown fault-plan keys.*'kind'"):
        resolve_profile(LEGACY_TRACE)


def test_resolve_profile_rejects_link_trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(LEGACY_TRACE, encoding="utf-8")
    with pytest.raises(ValueError, match=r"unknown fault-plan keys.*'kind'"):
        resolve_profile(str(path))


# ---------------------------------------------------------------------------
# Interpolation properties
# ---------------------------------------------------------------------------

@given(loss=st.floats(0.0, 1.0), loss_end=st.floats(0.0, 1.0),
       frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_lerp_stays_between_endpoints(loss, loss_end, frac):
    seg = TraceSegment(t_start=0.0, t_end=100.0, loss=loss,
                       loss_end=loss_end)
    got = seg.at(frac * 100.0)[0]
    lo, hi = min(loss, loss_end), max(loss, loss_end)
    assert lo - 1e-12 <= got <= hi + 1e-12


@given(t=st.floats(0.0, 20_000.0), seed=st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_trace_condition_is_a_pure_function_of_time(t, seed):
    tr = make_trace("degrade", 8, seed)
    src, dst = the_link(tr)
    assert tr.link_at(src, dst, t) == tr.link_at(src, dst, t)
    loss, corrupt, delay = tr.link_at(src, dst, t)[:3]
    assert 0.0 <= loss <= 1.0 and 0.0 <= corrupt <= 1.0
    assert delay >= 0.0


def test_json_roundtrip_preserves_conditions():
    tr = make_trace("degrade", 8, 4)
    back = FaultPlan.from_json(tr.to_json())
    src, dst = the_link(tr)
    for t in (0.0, 777.7, 5000.0, 19_999.0):
        assert back.link_at(src, dst, t) == tr.link_at(src, dst, t)


def test_to_json_is_canonical():
    tr = make_trace("burst", 8, 9)
    assert json.loads(tr.to_json()) == json.loads(
        FaultPlan.from_json(tr.to_json()).to_json())
