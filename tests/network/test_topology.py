"""Unit tests for the interconnect topologies."""

import pytest

from repro.network import GM_MARENOSTRUM, LAPI_POWER5, make_topology
from repro.network.topology import (
    FlatEthernet,
    HPSSwitch,
    MyrinetClos,
    Topology,
    Torus3D,
)


def test_myrinet_hop_counts_match_paper():
    # Section 4.1: 1 hop same linecard, 3 same group, 5 across groups.
    topo = MyrinetClos(512, base_us=1.0, per_hop_us=0.5,
                       nodes_per_linecard=16, linecards_per_group=8)
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 15) == 1     # same linecard
    assert topo.hops(0, 16) == 3     # same group, different linecard
    assert topo.hops(0, 127) == 3    # last node of group 0
    assert topo.hops(0, 128) == 5    # different group
    assert topo.hops(200, 500) == 5


def test_myrinet_latency_scales_with_hops():
    topo = MyrinetClos(512, base_us=1.0, per_hop_us=0.5)
    assert topo.latency(0, 1) == pytest.approx(1.5)
    assert topo.latency(0, 16) == pytest.approx(2.5)
    assert topo.latency(0, 128) == pytest.approx(3.5)
    assert topo.latency(7, 7) == 0.0


def test_hops_symmetric():
    topo = MyrinetClos(256, base_us=1.0, per_hop_us=0.5)
    for a, b in [(0, 3), (0, 20), (5, 200), (130, 131)]:
        assert topo.hops(a, b) == topo.hops(b, a)


def test_hps_uniform():
    topo = HPSSwitch(28, base_us=1.5, per_hop_us=0.1)
    lats = {topo.latency(0, d) for d in range(1, 28)}
    assert len(lats) == 1  # flat fabric
    assert topo.latency(3, 3) == 0.0


def test_out_of_range_rejected():
    topo = Topology(4, 1.0, 0.1)
    with pytest.raises(ValueError):
        topo.latency(0, 4)
    with pytest.raises(ValueError):
        topo.hops(-1, 0)


@pytest.mark.parametrize("cls", [Topology, MyrinetClos, HPSSwitch,
                                 FlatEthernet, Torus3D])
def test_latency_validates_both_ends_even_when_equal(cls):
    # latency(n, n) used to return 0.0 before looking at n.
    topo = cls(4, 1.0, 0.1)
    for src, dst in [(99, 99), (-1, -1), (4, 4), (0, 4), (4, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="out of range"):
            topo.latency(src, dst)
    assert topo.latency(3, 3) == 0.0


@pytest.mark.parametrize("topo", [
    MyrinetClos(40, 1.0, 0.5, nodes_per_linecard=4, linecards_per_group=2),
    HPSSwitch(9, 1.5, 0.1), FlatEthernet(5, 2.0, 0.3), Torus3D(27, 0.5, 0.1),
], ids=lambda t: type(t).__name__)
def test_tabled_latency_is_the_hop_formula(topo):
    for _ in range(2):                      # cold, then from the table
        for src in range(topo.nnodes):
            for dst in range(topo.nnodes):
                want = (0.0 if src == dst else
                        topo.base_us + topo.hops(src, dst) * topo.per_hop_us)
                assert topo.latency(src, dst) == want


def test_make_topology_dispatches_on_machine():
    t1 = make_topology(GM_MARENOSTRUM, 64)
    t2 = make_topology(LAPI_POWER5, 28)
    assert isinstance(t1, MyrinetClos)
    assert isinstance(t2, HPSSwitch)


def test_topology_needs_a_node():
    with pytest.raises(ValueError):
        Topology(0, 1.0, 0.1)
