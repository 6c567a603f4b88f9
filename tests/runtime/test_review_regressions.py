"""Regression tests for defects found in code review."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def make_rt(**kw):
    kw.setdefault("threads_per_node", 4)
    kw.setdefault("seed", 1)
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8, **kw))


def test_all_free_waits_for_inflight_relaxed_puts():
    """Review finding: all_free used to tear down the SVD while other
    threads' put tails were still in flight → SVDError on a correct
    program.  The fence+barrier ordering must make this legal."""
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 5:
            # Relaxed put to node 0, then straight into the free.
            yield from th.put(arr, 3, 99)
        yield from th.all_free(arr)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()  # must not raise (a crashed put tail raises at the fence)
    assert rt.metrics.frees == 1


def test_all_reduce_noncommutative_op_deterministic():
    """Review finding: the fold ran in arrival order, so cached and
    uncached runs disagreed for non-commutative ops.  It must fold in
    thread-id order regardless of timing."""
    def run_mode(cache_enabled):
        rt = make_rt(cache_enabled=cache_enabled)

        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
            yield from th.barrier()
            # Stagger arrivals differently per configuration.
            yield from th.get(arr, (th.id * 13 + 40) % 64)
            r = yield from th.all_reduce(th.id + 1,
                                         op=lambda a, b: a * 10 + b)
            return r

        procs = rt.spawn(kernel)
        rt.run()
        return {p.value for p in procs}

    on = run_mode(True)
    off = run_mode(False)
    assert on == off
    assert len(on) == 1
    assert on.pop() == int("12345678")


def test_stale_piggyback_ack_does_not_resurrect_freed_handle():
    """Review finding: a put's address-carrying ACK landing after
    all_free could re-insert a cache entry for the freed object."""
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.put(arr, 40, 7)   # AM put, ack piggybacks
        yield from th.all_free(arr)
        yield from th.barrier()
        yield from th.compute(50.0)         # let any stray acks land
        yield from th.barrier()
        return arr.handle

    procs = rt.spawn(kernel)
    rt.run()
    handle = procs[0].value
    for node in rt.cluster.nodes:
        for (h, _n) in rt.addr_cache(node.id).entries():
            assert h != handle, "stale entry resurrected after free"


def test_credit_exhaustion_with_busy_target_does_not_deadlock():
    """Review finding: reply credits acquired under handler_cpu could
    deadlock two nodes exchanging eager traffic.  With one credit and
    bidirectional gets+puts, the run must still complete."""
    from dataclasses import replace
    machine = replace(
        GM_MARENOSTRUM,
        transport=GM_MARENOSTRUM.transport.with_overrides(
            eager_credits=1))
    rt = Runtime(RuntimeConfig(machine=machine, nthreads=8,
                               threads_per_node=4, seed=2))

    def kernel(th):
        arr = yield from th.all_alloc(128, blocksize=8, dtype="u4")
        yield from th.barrier()
        # Everyone hammers the *other* node with gets and puts.
        other = (th.id + 4) % 8
        for k in range(12):
            yield from th.put(arr, (other * 8 + k % 8) % 128, k)
            v = yield from th.get(arr, (other * 8 + (k + 1) % 8) % 128)
            _ = v
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run(max_events=2_000_000)  # completes; deadlock would hang/drain
