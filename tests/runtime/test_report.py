"""Tests for the BG/L collective network and the runtime report."""

import pytest

from repro.network import BGL_TORUS, GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def run_barrier_heavy(machine, nthreads, tpn):
    cfg = RuntimeConfig(machine=machine, nthreads=nthreads,
                        threads_per_node=tpn, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        for _ in range(10):
            yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    return rt, res


def test_bgl_tree_barrier_is_scale_invariant():
    _, small = run_barrier_heavy(BGL_TORUS, 16, 2)     # 8 nodes
    _, big = run_barrier_heavy(BGL_TORUS, 128, 2)      # 64 nodes
    # The dedicated collective network keeps barrier latency flat.
    assert big.elapsed_us < small.elapsed_us * 1.3


def test_gm_dissemination_barrier_grows_with_scale():
    _, small = run_barrier_heavy(GM_MARENOSTRUM, 16, 4)   # 4 nodes
    _, big = run_barrier_heavy(GM_MARENOSTRUM, 256, 4)    # 64 nodes
    assert big.elapsed_us > small.elapsed_us * 1.5


def test_bgl_barrier_cheaper_than_gm_at_scale():
    _, bgl = run_barrier_heavy(BGL_TORUS, 128, 2)
    _, gm = run_barrier_heavy(GM_MARENOSTRUM, 256, 4)  # same 64 nodes
    assert bgl.elapsed_us < gm.elapsed_us


def test_report_contains_key_sections():
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=4, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)
            yield from th.get(arr, 41)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    report = rt.report()
    assert "run summary" in report
    assert "hit rate" in report
    assert "node 0" in report
    assert "barriers" in report
    assert "rdma share" in report


def test_metrics_summary_exposes_protocol_and_tail_keys():
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=2, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for i in range(120, 140):
                yield from th.get(arr, i)
                yield from th.put(arr, i, arr.dtype.type(i))
            yield from th.memget(arr, 64, 64)
        yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    summary = res.metrics.summary()
    for key in ("rdma_gets", "rdma_puts", "am_gets", "am_puts",
                "bulk_bytes_saved", "remote_get_p50_us",
                "remote_get_p99_us"):
        assert key in summary, key
    m = res.metrics
    # Per-protocol counts must reconcile with the remote totals.
    assert summary["rdma_gets"] + summary["am_gets"] == m.get_remote.count
    assert summary["rdma_puts"] + summary["am_puts"] == m.put_remote.count
    assert m.get_remote.count > 0
    # The percentiles come from the same population the count does.
    assert summary["remote_gets"] == m.get_remote.count
    assert (summary["remote_get_p50_us"]
            <= summary["remote_get_p99_us"])


def test_report_truncates_many_nodes():
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=48,
                        threads_per_node=4, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert "more nodes" in rt.report()
