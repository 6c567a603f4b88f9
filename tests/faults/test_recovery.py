"""End-to-end recovery: the runtime must compute correct answers on a
faulty fabric, degrade RDMA to AM gracefully, and stay bit-identical
when the plan is empty."""

from dataclasses import replace

import pytest

from repro.faults import (FaultPlan, LinkFault, LinkTrace, PinBudget,
                          PROFILES)
from repro.memory import PinLimitError
from repro.network import GM_MARENOSTRUM
from repro.obs import DEGRADE, FAULT_INJECT, RETRY, TIMEOUT
from repro.obs.events import EventLog
from repro.runtime import Runtime, RuntimeConfig
from repro.util.units import KB

N = 256


def kernel(th):
    arr = yield from th.all_alloc(N, blocksize=32, dtype="u8")
    for i in range(24):
        idx = (th.id * 131 + i * 17) % N
        yield from th.put(arr, idx, (idx * 3) % 251)
    yield from th.barrier()
    for i in range(24):
        idx = (th.id * 131 + i * 17) % N
        v = yield from th.get(arr, idx)
        assert v == (idx * 3) % 251, (idx, v)
    yield from th.barrier()


def run(plan, nthreads=8, events=None, **kw):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=nthreads,
                        fault_plan=plan, events=events, seed=1, **kw)
    rt = Runtime(cfg)
    rt.spawn(kernel)
    return rt, rt.run()


# ---------------------------------------------------------------------------
# Zero-fault bit identity
# ---------------------------------------------------------------------------

def test_empty_plan_is_bit_identical_to_no_plan():
    _, base = run(None)
    # Either fault language, armed but empty, must leave no trace.
    for armed in (dict(plan=FaultPlan(seed=123)),
                  dict(plan=None, link_trace=LinkTrace(seed=123))):
        _, empty = run(**armed)
        assert empty.elapsed_us == base.elapsed_us, armed
        assert empty.sim_events == base.sim_events, armed


def test_no_plan_installs_no_injector():
    rt, _ = run(FaultPlan())
    assert rt.faults is None
    assert rt.cluster.transport.faults is None


# ---------------------------------------------------------------------------
# Deterministic replay
# ---------------------------------------------------------------------------

def test_chaos_run_is_replayable_from_seeds():
    plan = PROFILES["chaos"].with_seed(7)
    _, a = run(plan)
    _, b = run(plan)
    assert a.elapsed_us == b.elapsed_us
    assert a.sim_events == b.sim_events
    # A different fault seed follows a different schedule.
    _, c = run(plan.with_seed(8))
    assert (c.elapsed_us, c.sim_events) != (a.elapsed_us, a.sim_events)


# ---------------------------------------------------------------------------
# Recovery paths
# ---------------------------------------------------------------------------

def test_duplicates_are_idempotent():
    plan = FaultPlan(seed=2, links=(
        LinkFault(kind="duplicate", prob=0.5, scope="am"),))
    rt, res = run(plan)                 # kernel self-checks every value
    tp = rt.cluster.transport
    assert tp.counters.by_kind.get("am-duplicate-delivery", 0) > 0
    assert tp.ledger.hits > 0           # dup deliveries hit the ledger


def test_drops_recover_via_retry():
    # Cache off keeps the traffic on AM, where the drop rule bites;
    # with the cache warm almost everything rides RDMA instead.
    plan = FaultPlan(seed=3, links=(
        LinkFault(kind="drop", prob=0.15, scope="am"),))
    rt, res = run(plan, cache_enabled=False)
    m = rt.metrics
    assert m.timeouts > 0 and m.retries > 0
    assert m.retries <= m.timeouts      # every retry follows a timeout


def test_rdma_timeout_degrades_to_am_and_reseeds():
    # All RDMA completions vanish during the first window; afterwards
    # the fabric heals.  The fallback must invalidate the suspect cache
    # entry, complete over AM, and let RDMA resume once healthy.
    plan = FaultPlan(seed=4, links=(
        LinkFault(kind="drop", prob=1.0, t_end=400.0, scope="rdma"),))
    log = EventLog(enabled=True)
    rt, res = run(plan, events=log)
    m = rt.metrics
    assert m.rdma_timeouts > 0
    # Concurrent timeouts against the same entry collapse to one
    # invalidation, so the count is positive but bounded above.
    inv = rt.aggregate_cache_stats().invalidations
    assert 0 < inv <= m.rdma_timeouts
    assert m.rdma_gets + m.rdma_puts > 0     # fast path resumed
    degrades = [e for e in log if e.kind == DEGRADE]
    assert degrades and all(
        e.attrs["mode"] == "rdma_to_am" for e in degrades)


def test_pin_exhaustion_degrades_to_am_forever():
    plan = FaultPlan(seed=5, pin_budgets=(PinBudget(budget_bytes=0),))
    rt, res = run(plan)
    m = rt.metrics
    assert m.pin_degrades > 0
    assert m.rdma_gets + m.rdma_puts == 0    # nothing ever pinned
    assert any(rt.pinned_table(n.id).unpinnable_count > 0
               for n in rt.cluster.nodes)


def test_real_pin_limit_degrades_when_configured():
    # Without a fault plan the strict behavior raises (covered in
    # tests/runtime/test_failure_injection.py); with the degradation
    # switch the same machine limit turns into AM-forever service.
    tiny = replace(
        GM_MARENOSTRUM,
        transport=GM_MARENOSTRUM.transport.with_overrides(
            max_pin_total_bytes=4 * KB))

    def big(th):
        # 64 KB arena per node — far beyond the 4 KB pin budget.
        arr = yield from th.all_alloc(64 * KB, blocksize=None, dtype="u1")
        yield from th.barrier()
        if th.id == 0:
            v = yield from th.get(arr, 40 * KB)  # first touch pins
            assert v == 0
        yield from th.barrier()

    cfg = RuntimeConfig(machine=tiny, nthreads=4, threads_per_node=2,
                        seed=1, degrade_pin_failures=True)
    rt = Runtime(cfg)
    rt.spawn(big)
    rt.run()                                 # completes, no raise
    assert rt.metrics.pin_degrades > 0

    strict = RuntimeConfig(machine=tiny, nthreads=4, threads_per_node=2,
                           seed=1)
    rt2 = Runtime(strict)
    rt2.spawn(big)
    with pytest.raises(PinLimitError):
        rt2.run()


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

def test_flight_recorder_captures_fault_lifecycle():
    plan = FaultPlan(seed=6, links=(
        LinkFault(kind="drop", prob=0.15, scope="both"),))
    log = EventLog(enabled=True)
    rt, res = run(plan, events=log)
    kinds = {e.kind for e in log}
    assert FAULT_INJECT in kinds
    assert TIMEOUT in kinds
    assert RETRY in kinds
    # Injection events carry the causal fault label.
    faults = [e for e in log if e.kind == FAULT_INJECT]
    assert all("fault" in e.attrs for e in faults)
    assert len(faults) == rt.metrics.faults_injected


def test_summary_exposes_reliability_counters():
    plan = PROFILES["chaos"].with_seed(11)
    rt, res = run(plan)
    s = res.metrics.summary()
    for key in ("retries", "timeouts", "rdma_fallbacks",
                "degraded_handles", "faults_injected"):
        assert key in s
    assert s["faults_injected"] > 0
