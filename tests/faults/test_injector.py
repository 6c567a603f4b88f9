"""FaultInjector: deterministic draws, scoping, and the pin budget."""

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkMode,
    LinkRule,
    NicStall,
    NO_FAULT,
    PinBudget,
)
from repro.faults.injector import _FAULT_STREAM
from repro.runtime.metrics import RuntimeMetrics
from repro.sim import Simulator
from repro.util.rng import seeded_rng


def make(plan: FaultPlan) -> FaultInjector:
    return FaultInjector(plan, Simulator(), RuntimeMetrics())


def fate_bits(fate) -> tuple:
    return (fate.drop_request, fate.drop_reply, fate.duplicate,
            fate.delay_us)


def test_same_seed_same_fate_sequence():
    plan = FaultPlan(seed=5, links=(
        LinkRule.static(loss=0.5),
        LinkRule.static(duplicate=0.5, scope="am"),
        LinkRule.static(delay_us=7.0, delay_prob=0.5, scope="am"),
    ))
    a, b = make(plan), make(plan)
    seq_a = [fate_bits(a.am_fate(0, 1)) for _ in range(200)]
    seq_b = [fate_bits(b.am_fate(0, 1)) for _ in range(200)]
    assert seq_a == seq_b
    # A different seed produces a different schedule.
    c = make(plan.with_seed(6))
    assert seq_a != [fate_bits(c.am_fate(0, 1)) for _ in range(200)]


def test_no_fault_singleton_is_never_mutated():
    plan = FaultPlan(seed=1, links=(LinkRule.static(loss=0.9),))
    inj = make(plan)
    for _ in range(300):
        inj.am_fate(0, 1)
        inj.rdma_fate(0, 1)
    assert fate_bits(NO_FAULT) == (False, False, False, 0.0)


def test_scope_splits_am_from_rdma():
    plan = FaultPlan(seed=2, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    inj = make(plan)
    assert inj.am_fate(0, 1) is NO_FAULT        # no AM rules at all
    assert inj.rdma_fate(0, 1).drop_request     # rule bites RDMA only


def test_rdma_drop_folds_reply_into_request():
    # For a one-sided op there is no reply message: any drop means the
    # completion never arrives, so both legs collapse to drop_request.
    plan = FaultPlan(seed=3, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    inj = make(plan)
    for _ in range(50):
        fate = inj.rdma_fate(0, 1)
        assert fate.drop_request
        assert not fate.drop_reply or fate.drop_request


def test_time_window_gates_rules():
    sim = Simulator()
    plan = FaultPlan(seed=4, links=(
        LinkRule.static(loss=1.0, t_start=100.0, t_end=200.0, scope="am"),))
    inj = FaultInjector(plan, sim, RuntimeMetrics())
    assert inj.am_fate(0, 1) is NO_FAULT        # now=0, before window
    sim.now = 150.0
    fate = inj.am_fate(0, 1)
    assert fate.drop_request or fate.drop_reply
    sim.now = 200.0
    assert inj.am_fate(0, 1) is NO_FAULT        # t_end exclusive


def test_one_stream_draws_in_a_fixed_order():
    # Every link decision comes from the injector's one RNG, composed
    # condition first, then loss (+ leg) -> corrupt -> duplicate ->
    # each probabilistic delay; a standing delay costs no draw and is
    # not an injection.
    plan = FaultPlan(seed=11, links=(
        LinkRule.static(loss=0.3, corrupt=0.3, delay_us=2.0),
        LinkRule.static(duplicate=0.3, delay_us=5.0, delay_prob=0.3),
    ))
    inj = make(plan)
    rng = seeded_rng(plan.seed, _FAULT_STREAM)
    loss, corrupt, delay, duplicate, jitter = plan.link_at(0, 1, 0.0)
    assert delay == 2.0 and jitter == ((0.3, 5.0),)
    fired = 0
    for _ in range(300):
        want = [False, False, False, delay]
        if rng.random() < loss:
            want[0 if rng.random() < 0.5 else 1] = True
            fired += 1
        elif rng.random() < corrupt:
            want[0] = True
            fired += 1
        if rng.random() < duplicate:
            want[2] = True
            fired += 1
        if rng.random() < 0.3:
            want[3] += 5.0
            fired += 1
        assert fate_bits(inj.am_fate(0, 1)) == tuple(want)
    assert inj.metrics.faults_injected == fired


def test_detoured_link_is_exempt_from_all_its_rules():
    # disable_and_repair routes around the sick segment: nothing on
    # the direct link applies any more, static rules included, and no
    # draw is spent on it.
    class Detoured:
        def mode_of(self, src, dst, now):
            return (LinkMode(mode="disabled", via=2)
                    if (src, dst) == (0, 1) else LinkMode())

    plan = FaultPlan(seed=6, links=(LinkRule.static(loss=1.0, delay_us=9.0),))
    inj = FaultInjector(plan, Simulator(), RuntimeMetrics(),
                        policy=Detoured())
    assert inj.am_fate(0, 1) is NO_FAULT
    assert inj.rdma_fate(0, 1) is NO_FAULT
    assert inj.metrics.faults_injected == 0
    assert inj.am_fate(1, 0).delay_us == 9.0    # other links still sick
    assert inj.metrics.faults_injected == 1


def test_nic_stall_accumulates_and_counts():
    plan = FaultPlan(seed=5, nic_stalls=(
        NicStall(stall_us=10.0, prob=1.0),
        NicStall(stall_us=5.0, node=0, prob=1.0),
    ))
    inj = make(plan)
    assert inj.nic_stall(0) == 15.0             # both rules match node 0
    assert inj.nic_stall(1) == 10.0             # only the wildcard
    assert inj.metrics.faults_injected == 3


def test_pin_budget_is_cumulative_per_node():
    plan = FaultPlan(pin_budgets=(PinBudget(budget_bytes=100),))
    inj = make(plan)
    assert inj.pin_allowed(0, 60)
    assert not inj.pin_allowed(0, 50)           # 60 + 50 > 100
    assert inj.pin_allowed(0, 40)               # denial charged nothing
    assert not inj.pin_allowed(0, 1)            # budget now exactly spent
    assert inj.pin_allowed(1, 100)              # budgets are per node


def test_tightest_matching_budget_wins():
    plan = FaultPlan(pin_budgets=(
        PinBudget(budget_bytes=1000),
        PinBudget(budget_bytes=64, node=2),
    ))
    inj = make(plan)
    assert inj.pin_allowed(0, 512)
    assert not inj.pin_allowed(2, 512)          # node 2's tighter cap
    assert inj.pin_allowed(2, 64)


def test_unmatched_nodes_have_no_budget():
    plan = FaultPlan(pin_budgets=(PinBudget(budget_bytes=0, node=7),))
    inj = make(plan)
    assert inj.pin_allowed(0, 1 << 30)
    assert not inj.pin_allowed(7, 1)
