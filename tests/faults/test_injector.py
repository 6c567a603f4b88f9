"""FaultInjector: identity-keyed draws, scoping, and the pin budget."""

import math

from repro.faults import (
    FaultInjector,
    FaultPlan,
    HandlerStall,
    LinkMode,
    LinkRule,
    NicStall,
    NO_FAULT,
    PinBudget,
)
from repro.faults.trace import fate_u01
from repro.network import GM_MARENOSTRUM
from repro.obs import FAULT_INJECT, EventLog
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.metrics import RuntimeMetrics
from repro.sim import Simulator


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
    seq_a = [fate_bits(a.am_fate((0, seq), 1)) for seq in range(200)]
    # A fate is a function of the message's identity, not of the
    # order the identities are drawn in.
    seq_b = [fate_bits(b.am_fate((0, seq), 1))
             for seq in reversed(range(200))][::-1]
    assert seq_a == seq_b
    # A different seed produces a different schedule.
    c = make(plan.with_seed(6))
    assert seq_a != [fate_bits(c.am_fate((0, seq), 1))
                     for seq in range(200)]


def test_no_fault_singleton_is_never_mutated():
    plan = FaultPlan(seed=1, links=(LinkRule.static(loss=0.9),))
    inj = make(plan)
    for seq in range(300):
        inj.am_fate((0, seq), 1)
        inj.rdma_fate((0, seq), 1)
    assert fate_bits(NO_FAULT) == (False, False, False, 0.0)


def test_scope_splits_am_from_rdma():
    plan = FaultPlan(seed=2, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    inj = make(plan)
    assert inj.am_fate((0, 1), 1) is NO_FAULT   # no AM rules at all
    assert inj.rdma_fate((0, 1), 1).drop_request  # rule bites RDMA only


def test_rdma_drop_folds_reply_into_request():
    # For a one-sided op there is no reply message: any drop means the
    # completion never arrives, so both legs collapse to drop_request.
    plan = FaultPlan(seed=3, links=(
        LinkRule.static(loss=1.0, scope="rdma"),))
    inj = make(plan)
    for seq in range(50):
        fate = inj.rdma_fate((0, seq), 1)
        assert fate.drop_request
        assert not fate.drop_reply or fate.drop_request


def test_time_window_gates_rules():
    sim = Simulator()
    plan = FaultPlan(seed=4, links=(
        LinkRule.static(loss=1.0, t_start=100.0, t_end=200.0, scope="am"),))
    inj = FaultInjector(plan, sim, RuntimeMetrics())
    assert inj.am_fate((0, 1), 1) is NO_FAULT   # now=0, before window
    sim.now = 150.0
    fate = inj.am_fate((0, 1), 1)
    assert fate.drop_request or fate.drop_reply
    sim.now = 200.0
    assert inj.am_fate((0, 1), 1) is NO_FAULT   # t_end exclusive


def test_each_draw_hashes_its_slot_of_the_message_identity():
    # Every link decision is fate_u01(seed, src, seq, attempt, slot),
    # the link's condition composed first, then loss (slot 0, its leg
    # slot 1) -> corrupt (2) -> duplicate (3) -> each probabilistic
    # delay (4, ...); a standing delay costs no draw and is not an
    # injection.
    plan = FaultPlan(seed=11, links=(
        LinkRule.static(loss=0.3, corrupt=0.3, delay_us=2.0),
        LinkRule.static(duplicate=0.3, delay_us=5.0, delay_prob=0.3),
    ))
    inj = make(plan)
    loss, corrupt, delay, duplicate, jitter = plan.link_at(2, 1, 0.0)
    assert delay == 2.0 and jitter == ((0.3, 5.0),)
    fired = 0
    for seq in range(100):
        for attempt in range(3):
            def u(slot):
                return fate_u01(plan.seed, 2, seq, attempt, slot)
            want = [False, False, False, delay]
            if u(0) < loss:
                want[0 if u(1) < 0.5 else 1] = True
                fired += 1
            elif u(2) < corrupt:
                want[0] = True
                fired += 1
            if u(3) < duplicate:
                want[2] = True
                fired += 1
            if u(4) < 0.3:
                want[3] += 5.0
                fired += 1
            assert fate_bits(inj.am_fate((2, seq), 1, attempt)) \
                == tuple(want)
    assert inj.metrics.faults_injected == fired


def test_loss_and_its_leg_split_hold_their_probabilities():
    # 10 000 message identities at loss 0.3: the drops, and the
    # request/reply split among them, stay inside 5-sigma binomial
    # bands.
    inj = make(FaultPlan(seed=9, links=(LinkRule.static(loss=0.3),)))
    fates = [inj.am_fate((0, seq), 1) for seq in range(10_000)]
    drops = sum(f.drop_request or f.drop_reply for f in fates)
    requests = sum(f.drop_request for f in fates)
    assert abs(drops - 3000) <= 5 * math.sqrt(10_000 * 0.3 * 0.7)
    assert abs(requests - drops / 2) <= 5 * math.sqrt(drops / 4)


def test_stall_draws_count_checks_per_node_and_kind():
    # A stall draw is fate_u01(seed, node, n, rule), n counting that
    # kind of check on that node: another node's checks do not move
    # it, and a handler rule never shares a NIC rule's slot.
    plan = FaultPlan(seed=4, nic_stalls=(NicStall(stall_us=3.0, prob=0.5),),
                     handler_stalls=(HandlerStall(stall_us=7.0, prob=0.5),))
    alone, busy = make(plan), make(plan)
    for _ in range(40):
        busy.nic_stall(1)
        busy.handler_stall(1)
    for n in range(40):
        want_nic = 3.0 if fate_u01(plan.seed, 0, n, 0) < 0.5 else 0.0
        want_handler = 7.0 if fate_u01(plan.seed, 0, n, 1) < 0.5 else 0.0
        assert alone.nic_stall(0) == busy.nic_stall(0) == want_nic
        assert alone.handler_stall(0) == busy.handler_stall(0) \
            == want_handler


def _pair_fates(extra_pair):
    """``FAULT_INJECT`` records on the links between nodes 0 and 1 of a
    4-node run under a static 0.3 loss on every link; nodes 2 and 3
    talk too when ``extra_pair``."""
    log = EventLog(enabled=True)
    rt = Runtime(RuntimeConfig(
        machine=GM_MARENOSTRUM, nthreads=4, threads_per_node=1, seed=1,
        events=log,
        fault_plan=FaultPlan(seed=3, links=(LinkRule.static(loss=0.3),))))

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=16, dtype="u8")
        yield from th.barrier()
        if th.id < 2 or extra_pair:
            peer = th.id ^ 1
            for i in range(20):
                yield from th.put(arr, peer * 16 + i % 16, i)
                yield from th.get(arr, peer * 16 + (i * 7) % 16)
            yield from th.fence()

    rt.spawn(kernel)
    rt.run()
    return [(e.t, e.node, e.attrs) for e in log if e.kind == FAULT_INJECT
            and {e.attrs.get("src"), e.attrs.get("dst")} == {0, 1}]


def test_a_pairs_fates_do_not_depend_on_other_nodes_traffic():
    # Fates keyed by message identity: the 0<->1 links see the same
    # faults whether or not nodes 2 and 3 talk as well.
    alone = _pair_fates(extra_pair=False)
    assert alone
    assert _pair_fates(extra_pair=True) == alone


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
    assert inj.am_fate((0, 1), 1) is NO_FAULT
    assert inj.rdma_fate((0, 2), 1) is NO_FAULT
    assert inj.metrics.faults_injected == 0
    assert inj.am_fate((1, 1), 0).delay_us == 9.0  # other links still sick
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
