"""Cross-module invariants tying the implementation to the paper's
architecture claims."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import GM_MARENOSTRUM, LAPI_POWER5
from repro.obs import EventLog
from repro.obs.events import AM_REPLY_RECV, AM_SEND, RDMA_ISSUE
from repro.runtime import Runtime, RuntimeConfig


def make_rt(**kw):
    kw.setdefault("machine", GM_MARENOSTRUM)
    kw.setdefault("nthreads", 8)
    kw.setdefault("threads_per_node", 4)
    return Runtime(RuntimeConfig(**kw))


def run_each(kernel, **kw):
    rt = make_rt(**kw)
    rt.spawn(kernel)
    res = rt.run()
    return rt, res


def test_svd_translation_only_on_uncached_path():
    """Section 2.2: the SVD deref at the target is the price of the
    default protocol; an RDMA (cache-hit) access must do zero remote
    directory lookups."""
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for _ in range(10):
                yield from th.get(arr, 40)   # node 1, 1 miss + 9 hits
        yield from th.barrier()

    rt, _ = run_each(kernel)
    assert rt.svd(1).lookups == 1            # only the miss translated
    assert rt.metrics.rdma_gets == 9

    rt_off, _ = run_each(kernel, cache_enabled=False)
    assert rt_off.svd(1).lookups == 10       # every access translated


def test_every_rdma_target_was_pinned_first():
    """Section 3.1: "before an address can be tagged in another node's
    address cache it needs to be pinned locally"."""
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=16, dtype="u4")
        yield from th.barrier()
        if th.id < 4:
            for k in range(6):
                yield from th.get(arr, (64 + th.id * 16 + k) % 256)
        yield from th.barrier()

    rt, _ = run_each(kernel)
    for node in rt.cluster.nodes:
        cache = rt.addr_cache(node.id)
        for (handle, target), _addr in cache.entries().items():
            owners = [r[2] for r in rt.pinned_table(target).regions.values()]
            assert owners.count(handle) >= 1, (
                f"cache on node {node.id} holds an address for "
                f"unpinned object {handle} on node {target}")


def test_rdma_never_wakes_target_progress_engine():
    """Figure 3b: RDMA has no target-CPU involvement."""
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            for _ in range(20):
                yield from th.get(arr, 40)
        yield from th.barrier()

    rt, _ = run_each(kernel)
    # Node 1 serviced exactly one AM (the compulsory miss); the 19
    # RDMA hits never touched its progress engine.
    assert rt.cluster.node(1).progress.serviced == 1


def test_recorder_balances_the_metrics():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40)
            yield from th.get(arr, 41)
            yield from th.put(arr, 42, 7)
        yield from th.barrier()

    log = EventLog()
    rt, _ = run_each(kernel, events=log)
    m = rt.metrics
    rdma = log.by_kind(RDMA_ISSUE)
    assert (m.rdma_gets, m.rdma_puts) == (1, 1)
    assert len(rdma) == m.rdma_gets + m.rdma_puts
    assert len(log.by_kind(AM_REPLY_RECV)) <= len(log.by_kind(AM_SEND))
    assert sum(e.attrs["nbytes"] for e in rdma) > 0


def test_handler_exception_surfaces_as_program_error():
    """Failure injection: a crashing header handler must fail the run
    loudly, not hang it."""
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            # Sabotage: remove the target's SVD entry mid-run.
            rt.svd(1).remove(arr.handle)
            yield from th.get(arr, 40)
        yield from th.barrier()

    rt.spawn(kernel)
    with pytest.raises(Exception):
        rt.run()


def test_nthreads_one_degenerate_case():
    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=4, dtype="u4")
        yield from th.put(arr, 3, 9)
        v = yield from th.get(arr, 3)
        assert v == 9
        yield from th.barrier()

    rt, res = run_each(kernel, nthreads=1, threads_per_node=1)
    assert rt.metrics.remote_ops == 0
    assert res.elapsed_us > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 100),
    machine_lapi=st.booleans(),
    ops=st.lists(
        st.tuples(st.sampled_from(["get", "put", "compute", "barrier"]),
                  st.integers(0, 63)),
        min_size=1, max_size=25),
)
def test_property_random_programs_equivalent_cached_uncached(
        seed, machine_lapi, ops):
    """Any straight-line UPC program (gets, puts, computes, barriers)
    produces identical results and data-plane state with the cache on
    and off."""
    machine = LAPI_POWER5 if machine_lapi else GM_MARENOSTRUM

    def run_mode(cache_enabled):
        cfg = RuntimeConfig(machine=machine, nthreads=4,
                            threads_per_node=2, seed=seed,
                            cache_enabled=cache_enabled)
        rt = Runtime(cfg)

        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=8, dtype="i8")
            yield from th.barrier()
            acc = 0
            # Phase discipline: reads (of neighbours' slots) and
            # writes (of private slots) may not share an epoch — a
            # barrier separates them.  Every thread follows the same
            # ops list, so the inserted barriers align collectively
            # and the program is race-free by construction.
            phase = None
            for op, idx in ops:
                if op in ("get", "put") and phase not in (None, op):
                    yield from th.barrier()
                if op == "get":
                    phase = "get"
                    slot = (idx // 4) * 4 + (th.id + 1) % th.nthreads
                    v = yield from th.get(arr, slot)
                    acc += int(v)
                elif op == "put":
                    phase = "put"
                    slot = (idx // 4) * 4 + th.id
                    yield from th.put(arr, slot, acc + th.id + 1)
                elif op == "compute":
                    yield from th.compute(float(idx) / 7.0)
                else:
                    yield from th.barrier()
                    phase = None
            yield from th.barrier()
            return acc

        procs = rt.spawn(kernel)
        rt.run()
        arr_state = None
        return [p.value for p in procs]

    assert run_mode(True) == run_mode(False)
