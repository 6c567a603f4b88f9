"""Split-phase barrier (upc_notify / upc_wait) tests."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def make_rt(nthreads=8, **kw):
    kw.setdefault("threads_per_node", 4)
    kw.setdefault("seed", 1)
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM,
                                 nthreads=nthreads, **kw))


def test_notify_wait_synchronizes_like_barrier():
    rt = make_rt()
    after = []

    def kernel(th):
        yield from th.compute(float(th.id))
        yield from th.barrier_notify()
        yield from th.barrier_wait()
        after.append(rt.sim.now)

    rt.spawn(kernel)
    rt.run()
    assert len(after) == 8
    assert max(after) - min(after) < 1.0
    assert rt.metrics.barriers == 1


def test_compute_overlaps_barrier_network_phase():
    """Work placed between notify and wait hides barrier latency: the
    split version must beat barrier-then-compute."""
    def run(split):
        rt = make_rt(nthreads=64, threads_per_node=4)  # 16 nodes

        def kernel(th):
            if split:
                yield from th.barrier_notify()
                yield from th.compute(30.0)   # overlapped
                yield from th.barrier_wait()
            else:
                yield from th.barrier()
                yield from th.compute(30.0)

        rt.spawn(kernel)
        return rt.run().elapsed_us

    assert run(True) < run(False)


def test_double_notify_rejected():
    rt = make_rt(nthreads=2, threads_per_node=2)

    def kernel(th):
        yield from th.barrier_notify()
        yield from th.barrier_notify()

    rt.spawn(kernel)
    with pytest.raises(RuntimeError, match="notify twice"):
        rt.run()


def test_wait_without_notify_rejected():
    rt = make_rt(nthreads=2, threads_per_node=2)

    def kernel(th):
        yield from th.barrier_wait()

    rt.spawn(kernel)
    with pytest.raises(RuntimeError, match="without upc_notify"):
        rt.run()


def test_mixed_split_and_plain_barriers_interleave():
    rt = make_rt(nthreads=4, threads_per_node=2)
    log = []

    def kernel(th):
        yield from th.barrier_notify()
        yield from th.compute(2.0)
        yield from th.barrier_wait()
        log.append(("phase1", th.id))
        yield from th.barrier()
        log.append(("phase2", th.id))

    rt.spawn(kernel)
    rt.run()
    phases = [p for p, _ in log]
    assert phases.index("phase2") >= 4  # all phase1 precede phase2
    assert rt.barrier_mgr._generation == 2
