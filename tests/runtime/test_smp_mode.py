"""Pure-SMP operation (section 2: the runtime "can be implemented on
top of a variety of architectures, SMP or distributed").

On a single node every shared access is a load/store or an intra-node
copy: no network traffic, no handlers, no address-cache involvement —
and the programming model is unchanged.
"""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.workloads import PointerParams, run_pointer


def make_smp(nthreads=8):
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM,
                                 nthreads=nthreads,
                                 threads_per_node=nthreads, seed=1))


def test_smp_runtime_has_one_node():
    rt = make_smp()
    assert rt.cluster.nnodes == 1


def test_smp_program_runs_without_network():
    rt = make_smp()

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=16, dtype="u4")
        yield from th.barrier()
        v = yield from th.get(arr, (th.id * 37) % 256)
        yield from th.put(arr, th.id, int(v) + 1)
        yield from th.barrier()
        total = yield from th.all_reduce(th.id)
        return total

    procs = rt.spawn(kernel)
    res = rt.run()
    assert all(p.value == sum(range(8)) for p in procs)
    assert rt.metrics.remote_ops == 0
    assert res.cache_stats.accesses == 0
    assert all(n.progress.serviced == 0 for n in rt.cluster.nodes)


def test_smp_pointer_stressmark_cache_is_noop():
    params = PointerParams(machine=GM_MARENOSTRUM, nthreads=4,
                           threads_per_node=4, nelems=1024, hops=16,
                           seed=3)
    on = run_pointer(params)
    from dataclasses import replace
    off = run_pointer(replace(params, cache_enabled=False))
    assert on.check == off.check
    assert on.elapsed_us == pytest.approx(off.elapsed_us)


def test_smp_barrier_cost_is_shared_memory_only():
    rt = make_smp()
    assert rt.barrier_mgr.network_cost_us() < 1.0
