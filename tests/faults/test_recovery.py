"""End-to-end recovery: the runtime must compute correct answers on a
faulty fabric, degrade RDMA to AM gracefully, and stay bit-identical
when the plan is empty."""

import hashlib
import re
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core.pinned_table import UNPINNABLE
from repro.faults import FaultPlan, LinkRule, PinBudget, PROFILES
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
    # The one fault language, armed but empty, must leave no trace.
    for armed in (dict(plan=FaultPlan(seed=123)),):
        _, empty = run(**armed)
        assert empty.elapsed_us == base.elapsed_us, armed
        assert empty.sim_events == base.sim_events, armed


def test_dormant_plan_stays_inside_the_overhead_bar():
    # Rules that can never fire (the window opens long after the run
    # ends) may cost simulator events for their fate draws and timers,
    # but must leave virtual time within 5% of a run with no plan.
    _, base = run(None)
    _, dormant = run(FaultPlan(seed=1, links=(
        LinkRule.static(loss=1.0, t_start=1e12),)))
    assert (dormant.elapsed_us - base.elapsed_us) / base.elapsed_us < 0.05
    # Chaos recovers — slower, but it finishes (the kernel asserts
    # its own answers) with a sane clock.
    _, chaos = run(PROFILES["chaos"].with_seed(7))
    assert chaos.elapsed_us >= base.elapsed_us


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


#: (workload, profile, nthreads) -> (sha256 of the flight-recorder
#: JSONL, faults injected, timeouts, retries) of ``trace <workload>
#: --nthreads N --fault-profile P --fault-seed 3``, produced at the
#: last commit whose static profiles were kind/prob rules drawn by
#: their own injector loop (bb4c6f0).  ``dup`` stays dormant on 8
#: threads, so it is pinned once more where it fires.  The two
#: ``update`` rows hold the PUT paths (eager and rendezvous AM PUT,
#: one-way notifications); they were produced at 7f9419a, the last
#: commit with a separate handler block per AM protocol.
PARENT_STATIC_RUNS = {
    ("pointer", "drop", 8):
        ("f3c3715fe2c2f78f286566c5748e4c216da84c14dc0f4f9311e1d494a0f51d9e",
         12, 12, 2),
    ("pointer", "dup", 8):
        ("65e1434383d4e7cdaf4e6a7088a5b3d11a3747db3e68ddb4fff34a0905959c9b",
         0, 0, 0),
    ("pointer", "delay", 8):
        ("b629af2664220d175e62c81c537b14015b0b844172ae3da21884988585154c41",
         37, 0, 0),
    ("pointer", "stall", 8):
        ("c855618759864b725348632ce45917aa83a82821223d1df3ed398a747ee82728",
         25, 0, 0),
    ("pointer", "pin", 8):
        ("d323bcbe833e1a84869af1c8d648eddc5508fec648f7b2191a1a9afdf3cdf1fa",
         2, 0, 0),
    ("pointer", "chaos", 8):
        ("78ba04bb4e664df8eb4ae8116f695aaf69e97bf761d8d696fd7e6d5ab0b3a59a",
         18, 8, 8),
    ("field", "drop", 8):
        ("ffd090b3b548ff83d9bc20bc160cecce21d6a392bbb375f0e7b790eb802474b7",
         3, 3, 1),
    ("field", "dup", 8):
        ("2888457c60c94802a467d2d4170e7564a69188a4d4d2d7f03bcd07b4ae4fb3fe",
         0, 0, 0),
    ("field", "delay", 8):
        ("ba5fb494427d6c660b5728a63a55bdf6aa9d44ccc5b52e53b980d307c762c13d",
         17, 0, 0),
    ("field", "stall", 8):
        ("53936ec6b1cc1cb8a6c665509c7b1a966ff8cdcbbc31908eaf84d9d1208e5617",
         10, 0, 0),
    ("field", "pin", 8):
        ("604b1fd6202e680818acfc9f512255642192d70cf1ee96cb6295831dda6aa65a",
         2, 0, 0),
    ("field", "chaos", 8):
        ("3d202ce60c5cac99c35caa65488516d98812861286e5ac769c1ccd21c5ffa0ba",
         9, 3, 3),
    ("pointer", "dup", 16):
        ("8e3c3fead2449f9484466b691b51324b827f76d4544d5fa5770680b8c8e7369c",
         2, 0, 0),
    ("update", "drop", 8):
        ("c234713e6a6a29651f205c6ad742916146a5ab183edc77bbee3bca7f01fc4248",
         6, 6, 1),
    ("update", "chaos", 8):
        ("5f0a467223523ff4680f063c275f56aa131a0e3a69fe5eda3612cac430c7cf8c",
         11, 5, 5),
}


@pytest.mark.parametrize("workload,profile,nthreads",
                         sorted(PARENT_STATIC_RUNS))
def test_static_profiles_replay_the_parent_schedule(
        tmp_path, capsys, workload, profile, nthreads):
    # One injector path serves static and time-evolving rules; the six
    # canned profiles must draw exactly the fates they always drew.
    assert main(["trace", workload, "--nthreads", str(nthreads),
                 "--fault-profile", profile, "--fault-seed", "3",
                 "--format", "jsonl", "--out", str(tmp_path)]) == 0
    counters = re.search(r"faults: (\d+) injected, (\d+) timeouts, "
                         r"(\d+) retries", capsys.readouterr().out)
    sha = hashlib.sha256(
        (tmp_path / f"{workload}.events.jsonl").read_bytes()).hexdigest()
    assert (sha, *map(int, counters.groups())) \
        == PARENT_STATIC_RUNS[workload, profile, nthreads]


# ---------------------------------------------------------------------------
# Recovery paths
# ---------------------------------------------------------------------------

def test_duplicates_are_idempotent():
    plan = FaultPlan(seed=2, links=(
        LinkRule.static(duplicate=0.5, scope="am"),))
    rt, res = run(plan)                 # kernel self-checks every value
    tp = rt.cluster.transport
    assert tp.ledger.hits > 0           # dup deliveries hit the ledger


def test_drops_recover_via_retry():
    # Cache off keeps the traffic on AM, where the drop rule bites;
    # with the cache warm almost everything rides RDMA instead.
    plan = FaultPlan(seed=3, links=(
        LinkRule.static(loss=0.15, scope="am"),))
    rt, res = run(plan, cache_enabled=False)
    m = rt.metrics
    assert m.timeouts > 0 and m.retries > 0
    assert m.retries <= m.timeouts      # every retry follows a timeout


def test_rdma_timeout_degrades_to_am_and_reseeds():
    # All RDMA completions vanish during the first window; afterwards
    # the fabric heals.  The fallback must invalidate the suspect cache
    # entry, complete over AM, and let RDMA resume once healthy.
    plan = FaultPlan(seed=4, links=(
        LinkRule.static(loss=1.0, t_end=400.0, scope="rdma"),))
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
    assert any(list(rt.pinned_table(n.id).handles.values()).count(
        UNPINNABLE) > 0 for n in rt.cluster.nodes)


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
    plan = FaultPlan(seed=6, links=(LinkRule.static(loss=0.15),))
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


# ---------------------------------------------------------------------------
# A failed bulk op says which message failed
# ---------------------------------------------------------------------------

DARK = 400.0      # long after the allocation and the opening barrier


def _memget_into_the_dark(nblocks):
    """Thread 0 reads ``nblocks`` 16-element blocks starting at node
    1's first, once the fabric has gone dark for good.  Returns the
    runtime and the error the run raised."""
    from repro.faults import ReliabilityConfig, ReliabilityError

    plan = FaultPlan(seed=1, links=(
        LinkRule.static(loss=1.0, t_start=DARK),))
    rt = Runtime(RuntimeConfig(
        machine=GM_MARENOSTRUM, nthreads=4, threads_per_node=2,
        fault_plan=plan, reliability=ReliabilityConfig(max_retries=2),
        seed=1))

    def reader(th):
        arr = yield from th.all_alloc(128, blocksize=16, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            assert rt.sim.now < DARK
            yield rt.sim.timeout(DARK)
            yield from th.memget(arr, 32, 16 * nblocks)

    rt.spawn(reader)
    with pytest.raises(ReliabilityError) as failure:
        rt.run()
    return rt, failure.value


def test_failed_one_message_span_names_its_message():
    # One block: the plan is one message, run inline in thread 0.
    rt, err = _memget_into_the_dark(1)
    assert err.args[0] == ("bulk get t0->n1, message 1 of 1, failed after "
                           "retries: am get 0->1 gave up after 2 retries (op -1)")
    assert (err.src, err.dst, err.attempts) == (0, 1, 3)
    assert "'upc0'" in err.args[1]
    assert rt.bulk.live_messages == 0


def test_failed_pipelined_span_names_its_message():
    # Three blocks: threads 2 and 3 on node 1 own one each (two
    # messages in flight; the second's budget runs out first), the
    # third is thread 0's own.
    rt, err = _memget_into_the_dark(3)
    assert err.args[0] == ("bulk get t0->n1, message 2 of 2, failed after "
                           "retries: am get 0->1 gave up after 2 retries (op -1)")
    assert "'bulk[t0->n1]'" in err.args[1]
