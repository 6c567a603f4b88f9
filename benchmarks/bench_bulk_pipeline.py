"""The bulk-transfer engine's pipeline/coalescing sweep.

Not a paper figure — this quantifies the engine added on top of the
reproduced runtime: a multi-block ``memget`` whose remote half used to
pay one blocking round trip per block now coalesces arena-contiguous
blocks and keeps ``bulk_max_inflight`` messages on the wire.  The
sweep reports, per remote-block count:

* virtual-time speedup over the serial (engine-off) path,
* simulator events saved (the coalesced messages also make the
  *simulation itself* cheaper), and
* events per transferred byte — the substrate-efficiency view.

Three configurations isolate the two mechanisms: serial baseline,
pipeline-only (coalescing off), and the full engine at defaults.
"""

import numpy as np

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig

#: Elements per block (u4): 256 B per block on the wire.
BLOCKSIZE = 64
#: Remote-block counts swept.
BULK_BENCH_BLOCKS = [4, 16, 64]


def _run_memget(remote_blocks: int, **kw):
    """Thread 0 bulk-reads a span alternating local/remote blocks;
    ``remote_blocks`` of them live on the other node."""
    nelems = 2 * remote_blocks * BLOCKSIZE
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                        threads_per_node=1, **kw)
    rt = Runtime(cfg)
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(nelems, blocksize=BLOCKSIZE,
                                      dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(nelems, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["data"] = yield from th.memget(arr, 0, nelems)
        yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    return got["data"], res


def test_bulk_pipeline_sweep(benchmark):
    def sweep():
        rows = []
        for nblocks in BULK_BENCH_BLOCKS:
            data_off, off = _run_memget(nblocks, bulk_enabled=False)
            data_pipe, pipe = _run_memget(nblocks,
                                          bulk_max_coalesce_bytes=0)
            data_on, on = _run_memget(nblocks)
            assert np.array_equal(data_on, data_off)
            assert np.array_equal(data_pipe, data_off)
            nbytes = nblocks * BLOCKSIZE * 4
            rows.append({
                "blocks": nblocks,
                "speedup_pipe": off.elapsed_us / pipe.elapsed_us,
                "speedup_full": off.elapsed_us / on.elapsed_us,
                "events_off": off.sim_events,
                "events_on": on.sim_events,
                "events_saved_pct":
                    100 * (1 - on.sim_events / off.sim_events),
                "events_per_kb_off": 1024 * off.sim_events / nbytes,
                "events_per_kb_on": 1024 * on.sim_events / nbytes,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("bulk pipeline sweep (2 threads / 2 nodes, 256 B blocks):")
    print("  blocks  speedup(pipe)  speedup(full)  events off->on"
          "   ev/KiB off->on")
    for r in rows:
        print(f"  {r['blocks']:6d}  {r['speedup_pipe']:12.2f}x"
              f"  {r['speedup_full']:12.2f}x"
              f"  {r['events_off']:5d} -> {r['events_on']:5d}"
              f" (-{r['events_saved_pct']:4.1f}%)"
              f"  {r['events_per_kb_off']:6.1f} -> "
              f"{r['events_per_kb_on']:.1f}")
    # Acceptance: a 16-remote-block memget at the default window is at
    # least 2x faster in virtual time and 20% cheaper to simulate.
    at16 = next(r for r in rows if r["blocks"] == 16)
    assert at16["speedup_full"] >= 2.0
    assert at16["events_saved_pct"] >= 20.0
    # Pipelining alone (no coalescing) must already overlap transfers.
    assert at16["speedup_pipe"] > 1.2
