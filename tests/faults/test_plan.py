"""FaultPlan construction, validation, and the JSON round trip."""

import math

import pytest

from repro.faults import (
    ANY_NODE,
    FaultPlan,
    HandlerStall,
    LinkRule,
    NicStall,
    PinBudget,
    PROFILES,
    TraceSegment,
    resolve_profile,
)


def full_plan() -> FaultPlan:
    return FaultPlan(
        seed=42,
        name="everything",
        links=(
            LinkRule.static(src=0, dst=2, loss=0.1),
            LinkRule(segments=(
                TraceSegment(duplicate=0.05, scope="am"),
                TraceSegment(delay_us=12.5, delay_prob=0.5,
                             t_start=100.0, t_end=250.0, scope="rdma"),
                TraceSegment(t_start=10.0, t_end=90.0, corrupt=0.2,
                             loss_end=0.3, delay_end_us=4.0))),
        ),
        nic_stalls=(NicStall(stall_us=20.0, node=1, prob=0.3,
                             t_end=500.0),),
        handler_stalls=(HandlerStall(stall_us=40.0),),
        pin_budgets=(PinBudget(budget_bytes=4096, node=3),),
    )


def test_json_round_trip_is_lossless():
    plan = full_plan()
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    # And again, through the pretty-printed form.
    assert FaultPlan.from_json(plan.to_json(indent=2)) == plan


def test_json_spells_open_windows_as_inf():
    plan = FaultPlan(links=(LinkRule.static(loss=0.1),))
    text = plan.to_json()
    assert '"inf"' in text
    assert FaultPlan.from_json(text).links[0].segments[0].t_end == math.inf


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault-plan keys"):
        FaultPlan.from_json('{"seed": 1, "typo_field": []}')


@pytest.mark.parametrize("doc,names", [
    ('{"links": [{"src": 0, "bogus": 1}]}', r"links\[0\].*'bogus'"),
    ('{"links": [{}, {"segments": [{"los": 0.1}]}]}',
     r"links\[1\]\.segments\[0\].*'los'"),
    ('{"pin_budgets": [{"budget_bytes": 1, "nod": 2}]}',
     r"pin_budgets\[0\].*'nod'"),
    ('{"links": [{"segments": [{"loss": "x"}]}]}',
     r"links\[0\]\.segments\[0\]\.loss must be a number"),
    ('{"nic_stalls": [{"stall_us": null}]}',
     r"nic_stalls\[0\]\.stall_us must be a number"),
    ('{"handler_stalls": [{"stall_us": 3, "prob": true}]}',
     r"handler_stalls\[0\]\.prob must be a number"),
    ('{"seed": "inf"}', "seed must be an integer"),
    ('{"links": {"src": 0}}', "links must be a list"),
    ('{"links": [{"segments": 3}]}',
     r"links\[0\]\.segments must be a list"),
    ('{"nic_stalls": [7]}', r"nic_stalls\[0\] must be an object"),
    ('{"nic_stalls": [{"node": 1}]}', r"nic_stalls\[0\].*stall_us"),
    ('{"links": [{"segments": [{"loss": 2}]}]}',
     r"links\[0\]\.segments\[0\].*loss=2"),
    ('{"links": [{"segments": [{"scope": "carrier-pigeon"}]}]}',
     r"links\[0\]\.segments\[0\].*scope"),
], ids=["unknown-rule-key", "mistyped-segment-key", "unknown-budget-key",
        "string-value", "null-value", "bool-value", "string-seed",
        "rules-not-a-list", "segments-not-a-list", "rule-not-an-object",
        "missing-required-field", "out-of-range-value", "unknown-scope"])
def test_from_json_names_the_malformed_rule(doc, names):
    # Plan documents arrive from outside (a flag, a bug-report file):
    # every malformation is a ValueError, never a TypeError traceback.
    with pytest.raises(ValueError, match=names):
        FaultPlan.from_json(doc)


def test_empty_plan_detection():
    assert FaultPlan().empty
    assert FaultPlan(seed=99, name="label").empty
    assert not full_plan().empty


def test_with_seed_changes_only_the_seed():
    plan = full_plan()
    other = plan.with_seed(7)
    assert other.seed == 7
    assert other.links == plan.links
    assert other.name == plan.name


@pytest.mark.parametrize("bad", [
    lambda: TraceSegment(duplicate=-0.1),
    lambda: TraceSegment(loss=1.5),
    lambda: TraceSegment(loss=0.5, scope="carrier-pigeon"),
    lambda: TraceSegment(delay_us=5.0, delay_prob=1.5),
    lambda: TraceSegment(loss=0.5, t_start=10.0, t_end=5.0),
    lambda: NicStall(stall_us=0.0),
    lambda: HandlerStall(stall_us=-1.0),
    lambda: PinBudget(budget_bytes=-1),
])
def test_rule_validation_rejects_nonsense(bad):
    with pytest.raises(ValueError):
        bad()


def test_link_fault_matching_wildcards_and_windows():
    plan = FaultPlan(links=(LinkRule.static(
        src=ANY_NODE, dst=2, loss=1.0, t_start=10.0, t_end=20.0),))
    assert plan.drop_prob(0, 2, 10.0) == 1.0
    assert plan.drop_prob(5, 2, 19.9) == 1.0
    assert plan.drop_prob(0, 3, 15.0) == 0.0    # wrong dst
    assert plan.drop_prob(0, 2, 9.9) == 0.0     # before window
    assert plan.drop_prob(0, 2, 20.0) == 0.0    # t_end exclusive


def test_profiles_are_valid_and_named():
    for name, plan in PROFILES.items():
        assert plan.name == name
        assert not plan.empty
        # Every profile must survive its own round trip.
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_resolve_profile_by_name_inline_and_file(tmp_path):
    assert resolve_profile("chaos") is PROFILES["chaos"]
    assert resolve_profile("chaos", fault_seed=9).seed == 9

    inline = resolve_profile('{"seed": 3, "pin_budgets": '
                             '[{"budget_bytes": 64, "node": -1}]}')
    assert inline.seed == 3
    assert inline.pin_budgets[0].budget_bytes == 64

    path = tmp_path / "plan.json"
    path.write_text(full_plan().to_json(indent=2), encoding="utf-8")
    assert resolve_profile(str(path)) == full_plan()

    with pytest.raises(ValueError, match="unknown fault profile"):
        resolve_profile("no-such-profile")


def test_static_fault_composes_like_any_segment():
    # A static fault is a one-segment rule: scope filters by protocol
    # family, probabilities combine independently, a standing delay
    # adds and a probabilistic one stays its own draw.
    plan = FaultPlan(links=(
        LinkRule(segments=(TraceSegment(loss=0.5),
                           TraceSegment(loss=0.5, scope="rdma"))),
        LinkRule(src=0, segments=(
            TraceSegment(delay_us=3.0, duplicate=0.25, scope="am"),
            TraceSegment(delay_us=7.0, delay_prob=0.2))),
    ))
    assert plan.link_at(0, 1, 5.0, "am") == (
        0.5, 0.0, 3.0, 0.25, ((0.2, 7.0),))
    assert plan.link_at(0, 1, 5.0, "rdma") == (
        0.75, 0.0, 0.0, 0.0, ((0.2, 7.0),))
    assert plan.link_at(1, 0, 5.0, "am") == (0.5, 0.0, 0.0, 0.0, ())
    assert plan.link_at(0, 1, 5.0)[:4] == (0.75, 0.0, 3.0, 0.25)
