#!/usr/bin/env python
"""Quickstart: a UPC-style program on the simulated XLUPC runtime.

Builds an 8-thread hybrid cluster (4 threads per MareNostrum-style
blade), allocates a shared array, and runs the same kernel with the
remote address cache off and on — printing the latency split and the
improvement, i.e. a miniature version of the paper's experiment.

Run:  python examples/quickstart.py
"""

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def kernel(th):
    """Each thread reads 32 pseudo-random remote elements and writes
    one element back, then synchronizes."""
    arr = yield from th.all_alloc(4096, blocksize=64, dtype="u8")
    if th.id == 0:
        arr.data[:] = range(4096)      # untimed input generation
    yield from th.barrier()

    total = 0
    for k in range(32):
        index = (th.id * 509 + k * 131) % 4096
        value = yield from th.get(arr, index)
        total += int(value)
        yield from th.compute(0.5)      # some local work per element
    yield from th.put(arr, th.id, total % 2 ** 32)
    yield from th.barrier()
    return total


def run(cache_enabled: bool):
    cfg = RuntimeConfig(
        machine=GM_MARENOSTRUM,   # Myrinet/GM cost model, polling progress
        nthreads=8,
        threads_per_node=4,       # hybrid: Pthreads within a blade
        cache_enabled=cache_enabled,
        seed=42,
    )
    rt = Runtime(cfg)
    procs = rt.spawn(kernel)
    result = rt.run()
    answers = [p.value for p in procs]
    return rt, result, answers


def main():
    rt_off, off, answers_off = run(cache_enabled=False)
    rt_on, on, answers_on = run(cache_enabled=True)

    assert answers_on == answers_off, "the cache must not change results"

    print("Quickstart: 8 UPC threads on 2 simulated MareNostrum blades")
    print(f"  without address cache : {off.elapsed_us:9.1f} us")
    print(f"  with address cache    : {on.elapsed_us:9.1f} us")
    imp = 100 * (off.elapsed_us - on.elapsed_us) / off.elapsed_us
    print(f"  improvement           : {imp:9.1f} %   (paper: ~30% for "
          "small GETs on GM)")
    print()
    stats = on.cache_stats
    print(f"  cache: {stats.hits} hits / {stats.misses} misses "
          f"(hit rate {stats.hit_rate:.2f}), "
          f"{stats.insertions} addresses learned via piggyback")
    m = on.metrics
    print(f"  remote GETs via RDMA  : {m.rdma_gets} of "
          f"{m.rdma_gets + m.am_gets}")
    print(f"  shared-memory accesses: {m.get_shm.count} "
          "(same-blade threads bypass the network)")


if __name__ == "__main__":
    main()
