"""Fault-mode fuzzing: chaos must not change answers, only timing.

The differential harness replays every generated program against the
flat-memory oracle; with a fault plan installed the runtime retries,
dedups, and degrades its way through the hostile fabric, and the final
state must still match the oracle bit for bit.  Fault seeds derive
from program seeds, so every cell here is a fixed, replayable point.
"""

import pytest

from repro.faults import (POLICIES, PROFILES, FaultPlan, LinkRule,
                          TraceSegment)
from repro.testing import (
    QUICK_MATRIX,
    config_by_name,
    generate_program,
    run_differential,
)

CHAOS = PROFILES["chaos"]

#: Every link flaps together: three 300 µs loss storms.  Wildcard
#: endpoints so the shape bites whatever cluster size the generated
#: program runs on.
FLAPPING = FaultPlan(seed=11, name="flap-all", links=(
    LinkRule(segments=tuple(
        TraceSegment(t_start=s, t_end=s + 300.0, loss=0.5)
        for s in (100.0, 1100.0, 2100.0))),))


# ---------------------------------------------------------------------------
# Fixed-seed corpus under chaos
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_chaos_corpus_quick_matrix(seed):
    program = generate_program(seed, n_ops=120)
    plan = CHAOS.with_seed(CHAOS.seed + 1000003 * seed)
    divs = run_differential(program, configs=list(QUICK_MATRIX),
                            fault_plan=plan)
    assert not divs, "\n\n".join(d.describe() for d in divs)


@pytest.mark.parametrize("profile", ["drop", "dup", "delay", "stall"])
def test_each_profile_converges_to_oracle(profile):
    # One seed per canned profile so every fault kind stays covered in
    # tier-1, not just the chaos mix.
    program = generate_program(5, n_ops=100)
    plan = PROFILES[profile].with_seed(17)
    points = [config_by_name("gm-base"), config_by_name("gm-nocache")]
    divs = run_differential(program, configs=points, fault_plan=plan)
    assert not divs, "\n\n".join(d.describe() for d in divs)


def test_pin_budget_exhaustion_converges_to_oracle():
    # Everything degrades to AM service and the answers still match.
    program = generate_program(9, n_ops=100)
    plan = FaultPlan(seed=9, pin_budgets=PROFILES["pin"].pin_budgets)
    divs = run_differential(program, configs=[config_by_name("gm-base")],
                            fault_plan=plan)
    assert not divs, "\n\n".join(d.describe() for d in divs)


@pytest.mark.parametrize("policy", POLICIES)
def test_flapping_trace_converges_under_each_policy(policy):
    # The lossy-fabric leg: a time-evolving trace (loss storms on every
    # link) under each repair policy.  Retries, detours, tuning and
    # failover may reshape timing — answers must still match the
    # oracle bit for bit.
    program = generate_program(7, n_ops=100)
    divs = run_differential(program, configs=[config_by_name("gm-base")],
                            fault_plan=FLAPPING, repair_policy=policy)
    assert not divs, "\n\n".join(d.describe() for d in divs)


def test_total_drop_window_converges_after_healing():
    # A dead fabric for the first 300 us, then healthy: retransmission
    # must carry every op across the outage.
    program = generate_program(13, n_ops=80)
    plan = FaultPlan(seed=13, links=(
        LinkRule.static(loss=1.0, t_end=300.0),))
    divs = run_differential(program, configs=[config_by_name("gm-base")],
                            fault_plan=plan)
    assert not divs, "\n\n".join(d.describe() for d in divs)


# ---------------------------------------------------------------------------
# Determinism of the faulted harness
# ---------------------------------------------------------------------------

def test_faulted_run_is_deterministic():
    from dataclasses import replace

    from repro.runtime import Runtime
    from repro.testing.runner import _Driver

    program = generate_program(2, n_ops=80)
    point = config_by_name("gm-base")
    plan = CHAOS.with_seed(21)

    def one():
        cfg = replace(point.runtime_config(program.nthreads,
                                           seed=program.seed or 0),
                      fault_plan=plan)
        rt = Runtime(cfg)
        driver = _Driver(rt, program)
        rt.spawn(driver.kernel)
        return rt.run()

    a, b = one(), one()
    assert a.elapsed_us == b.elapsed_us
    assert a.sim_events == b.sim_events


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_cli_fuzz_faults_smoke(capsys):
    from repro.__main__ import main
    rc = main(["fuzz", "--seed", "0", "--ops", "60", "--quick",
               "--faults"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "[faults]" in out


def test_cli_fuzz_fault_profile_and_seed(capsys):
    from repro.__main__ import main
    rc = main(["fuzz", "--seed", "1", "--ops", "40",
               "--matrix", "gm-base", "--no-shrink", "--faults",
               "--fault-profile", "drop", "--fault-seed", "99"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[faults]" in out
