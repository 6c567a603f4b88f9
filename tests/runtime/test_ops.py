"""Integration tests for GET/PUT through the full stack."""

import numpy as np
import pytest

from repro.core.piggyback import PiggybackMode
from repro.network import GM_MARENOSTRUM, LAPI_POWER5
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.errors import LayoutError


def run_kernel(kernel, nthreads=8, tpn=4, machine=GM_MARENOSTRUM, **kw):
    cfg = RuntimeConfig(machine=machine, nthreads=nthreads,
                        threads_per_node=tpn, **kw)
    rt = Runtime(cfg)
    rt.spawn(kernel)
    return rt, rt.run()


def test_get_reads_remote_value():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 5:                      # node 1
            yield from th.put(arr, 3, 1234) # element of thread 0, node 0
        yield from th.barrier()
        v = yield from th.get(arr, 3)
        yield from th.barrier()
        assert v == 1234

    run_kernel(kernel)


def test_first_remote_get_misses_then_hits():
    rt_holder = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)      # thread 5 → node 1: miss
            yield from th.get(arr, 41)      # same (handle, node): hit
        yield from th.barrier()

    rt, res = run_kernel(kernel)
    cache = rt.addr_cache(0)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert rt.metrics.am_gets == 1
    assert rt.metrics.rdma_gets == 1


def test_cache_disabled_never_uses_rdma():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for i in range(40, 48):
                yield from th.get(arr, i)
        yield from th.barrier()

    rt, res = run_kernel(kernel, cache_enabled=False)
    assert rt.metrics.rdma_gets == 0
    assert rt.metrics.am_gets == 8
    assert res.cache_stats.accesses == 0


def test_same_node_access_uses_shared_memory():
    # Section 4.6: threads on the same blade communicate through
    # shared memory; no network, no cache involvement.
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 10)  # thread 1 — same node
        yield from th.barrier()

    rt, res = run_kernel(kernel)
    assert rt.metrics.get_shm.count == 1
    assert rt.metrics.get_remote.count == 0
    assert res.cache_stats.accesses == 0


def test_local_access_cheapest():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 0)    # own element
            yield from th.get(arr, 10)   # same node
            yield from th.get(arr, 40)   # remote
        yield from th.barrier()

    rt, _ = run_kernel(kernel)
    m = rt.metrics
    assert m.get_local.mean < m.get_shm.mean < m.get_remote.mean


def test_target_pins_object_on_first_remote_touch():
    def kernel(th):
        arr = yield from th.all_alloc(1024, blocksize=128, dtype="u1")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 600)  # element on node 1
        yield from th.barrier()

    rt, _ = run_kernel(kernel)
    table = rt.pinned_table(1)
    assert len(table) >= 1
    assert table.pinned_bytes > 0


def test_cached_get_is_faster_than_uncached_gm():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for _ in range(20):
                yield from th.get(arr, 40)
        yield from th.barrier()

    rt_on, res_on = run_kernel(kernel, cache_enabled=True)
    rt_off, res_off = run_kernel(kernel, cache_enabled=False)
    assert (rt_on.metrics.get_remote.mean
            < rt_off.metrics.get_remote.mean)


def test_put_applies_value_after_fence():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            yield from th.put(arr, 40, 777)   # remote put
            yield from th.fence()
            v = yield from th.get(arr, 40)
            assert v == 777
        yield from th.barrier()

    run_kernel(kernel)


def test_rdma_put_disabled_on_lapi_by_default():
    # Section 4.3: "we disabled the address cache for the PUT
    # operations in LAPI".
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)        # seed the cache
            for i in range(8):
                yield from th.put(arr, 40 + i % 8, i)
        yield from th.barrier()

    rt, _ = run_kernel(kernel, nthreads=8, tpn=2, machine=LAPI_POWER5)
    assert rt.metrics.rdma_puts == 0
    assert rt.metrics.am_puts == 8

    rt2, _ = run_kernel(kernel, nthreads=8, tpn=2, machine=LAPI_POWER5,
                        use_rdma_put=True)
    assert rt2.metrics.rdma_puts > 0


def test_rdma_put_used_on_gm_after_cache_seeded():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)
            yield from th.put(arr, 41, 5)
        yield from th.barrier()

    rt, _ = run_kernel(kernel)
    assert rt.metrics.rdma_puts == 1


def test_memget_bulk_roundtrip():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=32, dtype="u4")
        if th.id == 7:
            yield from th.memput(arr, 32, np.arange(16, dtype="u4"))
        yield from th.barrier()
        chunk = yield from th.memget(arr, 32, 16)
        assert list(chunk) == list(range(16))
        yield from th.barrier()

    run_kernel(kernel)


def test_functional_equivalence_cached_vs_uncached():
    """The core validity property: the cache changes timing only."""
    def kernel(th):
        arr = yield from th.all_alloc(128, blocksize=4, dtype="i8")
        yield from th.barrier()
        rng_idx = [(th.id * 37 + k * 11) % 128 for k in range(12)]
        acc = 0
        for i in rng_idx:
            v = yield from th.get(arr, i)
            acc += int(v)
            yield from th.put(arr, (i + 1) % 128, th.id * 1000 + i)
        yield from th.barrier()
        total = 0
        for i in range(128):
            total += int((yield from th.get(arr, i)))
        yield from th.barrier()
        return total

    def final_state(cache_enabled):
        cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                            threads_per_node=4,
                            cache_enabled=cache_enabled, seed=3)
        rt = Runtime(cfg)
        procs = rt.spawn(kernel)
        rt.run()
        return [p.value for p in procs]

    assert final_state(True) == final_state(False)


def test_explicit_piggyback_mode_works_but_slower():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for i in range(40, 44):
                yield from th.get(arr, i)
        yield from th.barrier()

    rt_data, res_data = run_kernel(kernel)
    rt_expl, res_expl = run_kernel(
        kernel, piggyback=PiggybackMode.EXPLICIT)
    # Both end up caching; the explicit fetch pays an extra round trip
    # on the miss.
    assert rt_expl.addr_cache(0).stats.hits >= 1
    assert (rt_expl.metrics.get_remote.max
            > rt_data.metrics.get_remote.max)


def test_disabled_piggyback_never_populates_cache():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for i in range(40, 48):
                yield from th.get(arr, i)
        yield from th.barrier()

    rt, _ = run_kernel(
        kernel, piggyback=PiggybackMode.DISABLED)
    assert rt.metrics.rdma_gets == 0
    assert len(rt.addr_cache(0)) == 0


@pytest.mark.parametrize("index", [-1, 64, 10**6])
def test_out_of_range_index_still_raises_layout_error(index):
    # Ownership, node and offset come from one resolution per op; it
    # must have kept exactly one bounds check, not zero.
    def getter(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.get(arr, index)

    def putter(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.put(arr, index, 7)

    for kernel in (getter, putter):
        with pytest.raises(LayoutError, match="out of range"):
            run_kernel(kernel)


@pytest.mark.parametrize("usec", [float("nan"), float("inf"), -1.0],
                         ids=repr)
def test_compute_rejects_a_duration_that_is_not_a_finite_nonnegative(usec):
    # A NaN slice used to run as zero time and leave compute_time_us
    # NaN in metrics.summary().
    from repro.runtime.errors import UPCRuntimeError

    def kernel(th):
        yield from th.compute(usec)

    with pytest.raises(UPCRuntimeError, match=f"got {usec}"):
        run_kernel(kernel, nthreads=2, tpn=2)
