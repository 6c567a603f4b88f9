"""NIC sharing and handler contention — the section 4.6 amplification.

"In hybrid execution mode the network device is shared by all UPC
threads running on a blade ... with four threads competing for the
same network device any improvement in network device access time is
magnified fourfold."
"""

from dataclasses import replace

from repro.network import Cluster, GM_MARENOSTRUM
from repro.sim import Simulator
from repro.util import KB
from repro.workloads import PointerParams, run_pointer

from tests.sim.drive import finish
from tests.sim.grant_log import GrantLog


def _pointer_improvement(threads_per_node: int) -> float:
    params = PointerParams(
        machine=GM_MARENOSTRUM, nthreads=16,
        threads_per_node=threads_per_node,
        nelems=1 << 13, hops=48, seed=2, work_us=0.1)
    on = run_pointer(params)
    off = run_pointer(replace(params, cache_enabled=False))
    assert on.check == off.check
    return 100 * (1 - on.elapsed_us / off.elapsed_us)


def test_hybrid_amplification_with_shared_nic():
    # More threads per blade -> more contention on NIC + handler CPU
    # -> larger cache benefit (section 4.6's Pointer explanation).
    imp_1 = _pointer_improvement(1)
    imp_4 = _pointer_improvement(4)
    assert imp_4 > imp_1 + 5.0


def test_nic_utilization_reported():
    """The sender's NIC use, read off its grant log: every put took it
    and gave it back."""
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, 2)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    nic = cluster.node(0).nic = GrantLog.like(cluster.node(0).nic)

    def sender():
        for _ in range(10):
            yield from cluster.transport.default_put(
                cluster.node(0), cluster.node(1), 8 * KB)

    finish(sim, sender())
    assert nic.acquisitions >= 10
    assert nic.in_use == 0


def test_handler_queueing_grows_under_load():
    """Concurrent AM GETs from many threads serialize on the target's
    handler CPU; its grant log must show queueing."""
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, 2)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    target = cluster.node(1)
    target.handler_cpu = GrantLog.like(target.handler_cpu)

    def requester():
        yield from cluster.transport.default_get(
            cluster.node(0), target, 64,
            lambda n: (2.0, None, 0))

    for _ in range(8):
        sim.process(requester())
    sim.run()
    assert target.handler_cpu.wait_max > 0.0
    assert target.handler_cpu.acquisitions == 8


def test_fragmentation_charges_per_fragment_gap():
    """An eager transfer pays the NIC gap once per frag_bytes chunk —
    large eager messages are measurably slower than a hypothetical
    single-fragment send."""
    sim = Simulator()
    cluster = Cluster(sim, GM_MARENOSTRUM, 2)
    for node in cluster.nodes:
        node.progress.enter_runtime()
    p = cluster.params
    nbytes = 8 * KB   # 2 fragments on GM

    def run_once():
        t0 = sim.now
        yield from cluster.transport.default_get(
            cluster.node(0), cluster.node(1), nbytes)
        return sim.now - t0

    measured = finish(sim, run_once())
    frags = p.fragments(nbytes + p.ctrl_bytes)
    assert frags >= 2
    # Lower bound: wire + copies + one gap; measured must include the
    # extra per-fragment gaps.
    assert measured > p.wire_time(nbytes) + 2 * p.copy_time(nbytes)
