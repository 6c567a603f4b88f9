"""Tests for barrier, broadcast, allocation collectives, and locks."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.errors import SVDError, UPCRuntimeError
from repro.sim import SimulationError


def make_rt(nthreads=8, tpn=4, **kw):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=nthreads,
                        threads_per_node=tpn, **kw)
    return Runtime(cfg)


def test_barrier_synchronizes_all_threads():
    rt = make_rt()
    after = []

    def kernel(th):
        yield from th.compute(float(th.id) * 10.0)  # staggered arrival
        yield from th.barrier()
        after.append(rt.sim.now)

    rt.spawn(kernel)
    rt.run()
    assert len(after) == 8
    assert max(after) - min(after) < 1.0  # everyone released together
    assert max(after) >= 70.0             # waited for the slowest


def test_barrier_generations_count():
    rt = make_rt(nthreads=4, tpn=2)

    def kernel(th):
        for _ in range(5):
            yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    assert res.metrics.barriers == 5
    assert rt.barrier_mgr.generation == 5


def test_all_alloc_returns_same_object_everywhere():
    rt = make_rt()
    got = []

    def kernel(th):
        arr = yield from th.all_alloc(128, blocksize=16, dtype="u4")
        got.append(arr)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert len({id(a) for a in got}) == 1
    assert got[0].handle.is_all


def test_global_alloc_notifies_other_replicas():
    rt = make_rt()
    out = {}

    def kernel(th):
        if th.id == 2:
            arr = yield from th.global_alloc(128, blocksize=16, dtype="u4")
            out["arr"] = arr
        yield from th.barrier()
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    arr = out["arr"]
    assert arr.handle.partition == 2      # allocator's own partition
    # Every replica knows the control block; notified installs counted.
    for node in rt.cluster.nodes:
        assert arr.handle in rt.svd(node.id)
    assert rt.svd(1).notifications_received >= 1


def test_all_free_invalidates_remote_caches_eagerly():
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)   # populate node 0's cache
        yield from th.barrier()
        yield from th.all_free(arr)
        yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    assert len(rt.addr_cache(0)) == 0
    assert res.cache_stats.invalidations >= 1
    assert rt.metrics.frees == 1


def test_freed_array_lookup_raises():
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.all_free(arr)
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)  # use-after-free

    rt.spawn(kernel)
    with pytest.raises(SVDError):
        rt.run()


def test_lock_mutual_exclusion():
    rt = make_rt(nthreads=4, tpn=2)
    lock = rt.alloc_lock(owner_thread=0)
    critical = []

    def kernel(th):
        yield from th.lock(lock)
        critical.append(("in", th.id, rt.sim.now))
        yield from th.compute(5.0)
        critical.append(("out", th.id, rt.sim.now))
        yield from th.unlock(lock)

    rt.spawn(kernel)
    rt.run()
    # Critical sections never overlap.
    intervals = []
    for i in range(0, len(critical), 2):
        enter, leave = critical[i], critical[i + 1]
        assert enter[0] == "in" and leave[0] == "out"
        assert enter[1] == leave[1]
        intervals.append((enter[2], leave[2]))
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2
    assert lock.acquisitions == 4
    assert not lock.locked


def test_unlock_by_non_holder_rejected():
    rt = make_rt(nthreads=2, tpn=2)
    lock = rt.alloc_lock()

    def kernel(th):
        if th.id == 0:
            yield from th.lock(lock)
        yield from th.barrier()
        if th.id == 1:
            yield from th.unlock(lock)  # not the holder!

    rt.spawn(kernel)
    with pytest.raises(RuntimeError, match="unlocking lock held by"):
        rt.run()


def test_shared_scalar_allocation():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=5, dtype="f8")
    assert sc.home_node == rt.node_of_thread(5)
    sc.write(3.5)
    assert sc.read() == 3.5
    node, vaddr = sc.addr()
    assert rt.cluster.node(node).memory.owns(vaddr)


def test_run_without_spawn_rejected():
    rt = make_rt()
    with pytest.raises(UPCRuntimeError, match="nothing to do"):
        rt.run()


def test_spawn_rejects_a_program_that_is_no_generator_function():
    # The kernel's generator is the thread's process, so a plain
    # function is caught at spawn, and the message blames the program,
    # not the caller for passing it.
    rt = make_rt()

    def kernel(th):
        return th.id

    with pytest.raises(SimulationError, match=r"^spawn: program must be "
                                              r"a generator function, "):
        rt.spawn(kernel)


def test_config_validation():
    with pytest.raises(UPCRuntimeError):
        RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=0)
    with pytest.raises(UPCRuntimeError):
        RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=4,
                      threads_per_node=0)


def test_thread_node_mapping():
    rt = make_rt(nthreads=10, tpn=4)
    assert rt.cluster.nnodes == 3
    assert rt.node_of_thread(0) == 0
    assert rt.node_of_thread(7) == 1
    assert rt.node_of_thread(9) == 2
    assert rt.threads_on_node(2) == 2  # ragged tail
    assert rt.first_thread_of_node(1) == 4
