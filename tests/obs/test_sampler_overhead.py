"""Counter sampler behaviour + the zero-cost-when-off guarantee."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.obs import CounterSampler, EventLog
from repro.runtime import Runtime, RuntimeConfig


def _kernel(th):
    arr = yield from th.all_alloc(512, blocksize=16, dtype="u8")
    yield from th.barrier()
    peer = (th.id + th.nthreads // 2) % th.nthreads
    for i in range(8):
        yield from th.get(arr, (peer * 16 + i) % 512)
    yield from th.memget(arr, 0, 256)
    yield from th.barrier()


def _run(events=None, sampler_interval=None):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=2, seed=1, events=events)
    rt = Runtime(cfg)
    sampler = None
    if sampler_interval is not None:
        sampler = CounterSampler(rt, interval_us=sampler_interval)
        sampler.start()
    rt.spawn(_kernel)
    res = rt.run()
    return res, sampler


def series(sampler, name, node=None):
    """(t, value) points of one counter, optionally of one node."""
    return [(t, v) for t, n, c, v in sampler.samples
            if c == name and (node is None or n == node)]


def test_recording_does_not_perturb_the_simulation():
    """Virtual time and simulator event counts are bit-identical with
    recording off, on, and absent — emits are pure observations."""
    base, _ = _run(events=None)
    off, _ = _run(events=EventLog(enabled=False))
    log = EventLog()
    on, _ = _run(events=log)
    assert len(log) > 0
    assert off.elapsed_us == base.elapsed_us
    assert off.sim_events == base.sim_events
    assert on.elapsed_us == base.elapsed_us
    assert on.sim_events == base.sim_events


def test_recording_off_inflation_is_under_5_percent():
    """The acceptance bar, stated as a bound (measured: exactly 0)."""
    base, _ = _run(events=None)
    off, _ = _run(events=EventLog(enabled=False))
    inflation = (off.sim_events - base.sim_events) / base.sim_events
    assert inflation < 0.05


def test_sampler_collects_series_and_lets_the_sim_terminate():
    log = EventLog()
    res, sampler = _run(events=log, sampler_interval=10.0)
    assert len(sampler) > 0
    cache0 = series(sampler, "cache_entries", node=0)
    assert cache0, "per-node cache occupancy must be sampled"
    ts = [t for t, _ in cache0]
    assert ts == sorted(ts)
    # The final sample fires on the tick after the last thread
    # finishes, so it may land up to one interval past elapsed_us.
    assert ts[-1] <= res.elapsed_us + 10.0
    bulk = series(sampler, "bulk_inflight")
    assert bulk and all(v >= 0 for _, v in bulk)
    # Counter events landed in the log too (for the Chrome export).
    assert log.by_kind("counter")
    # Every node contributes pinned_bytes and am_queue gauges.
    assert series(sampler, "pinned_bytes", node=0)
    assert series(sampler, "am_queue", node=0)


@pytest.mark.parametrize("nelems", [16, 256],
                         ids=["inline", "pipelined"])
def test_bulk_inflight_gauge_returns_to_zero(nelems):
    """After a span that succeeds and after one whose message runs out
    of retries, for the one-message plan run inline (16 elements: one
    block) and for the pipelined one."""
    from repro.faults import (FaultPlan, LinkRule, ReliabilityConfig,
                              ReliabilityError)

    def reader(th):
        arr = yield from th.all_alloc(512, blocksize=16, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            yield 400.0
            yield from th.memget(arr, 32, nelems)

    for plan in (None, FaultPlan(seed=1, links=(
            LinkRule.static(loss=1.0, t_start=400.0),))):
        rt = Runtime(RuntimeConfig(
            machine=GM_MARENOSTRUM, nthreads=8, threads_per_node=2,
            seed=1, fault_plan=plan,
            reliability=ReliabilityConfig(max_retries=1)))
        sampler = CounterSampler(rt, interval_us=5.0)
        sampler.start()
        rt.spawn(reader)
        if plan is None:
            rt.run()
        else:
            with pytest.raises(ReliabilityError):
                rt.run()
        assert max(v for _, v in series(sampler, "bulk_inflight")) >= 1
        assert rt.bulk.live_messages == 0


def test_sampler_does_not_change_virtual_elapsed_time():
    base, _ = _run(events=None)
    sampled, _ = _run(events=EventLog(), sampler_interval=10.0)
    # Sampling adds simulator events (one per tick) but zero virtual
    # time: the program's critical path is untouched.
    assert sampled.elapsed_us == base.elapsed_us
    assert sampled.sim_events > base.sim_events


def test_sampler_rejects_nonpositive_interval():
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                        threads_per_node=2, seed=1)
    rt = Runtime(cfg)
    with pytest.raises(ValueError):
        CounterSampler(rt, interval_us=0.0)
