"""Tests for the DIS stressmark implementations."""

import pytest

from repro.network import GM_MARENOSTRUM, LAPI_POWER5
from repro.workloads import (
    FieldParams,
    NeighborhoodParams,
    PointerParams,
    UpdateParams,
    run_field,
    run_neighborhood,
    run_pointer,
    run_update,
)

GM = dict(machine=GM_MARENOSTRUM, nthreads=8, threads_per_node=4)


# ----------------------------------------------------------------- pointer

def test_pointer_functional_equivalence():
    a = run_pointer(PointerParams(**GM, cache_enabled=True, seed=7,
                                  nelems=2048, hops=16))
    b = run_pointer(PointerParams(**GM, cache_enabled=False, seed=7,
                                  nelems=2048, hops=16))
    assert a.check == b.check
    assert a.elapsed_us < b.elapsed_us


def test_pointer_chain_is_a_permutation_cycle():
    from repro.workloads.dis.pointer import _build_chain
    import numpy as np
    chain = _build_chain(64, seed=3)
    seen = set()
    idx = 0
    for _ in range(64):
        assert idx not in seen
        seen.add(idx)
        idx = int(chain[idx])
    assert idx == 0 and len(seen) == 64


def test_pointer_cache_grows_with_node_count():
    # Figure 8a's driver: random access over the whole space touches
    # one cache entry per remote node.
    r = run_pointer(PointerParams(machine=GM_MARENOSTRUM, nthreads=16,
                                  threads_per_node=2, cache_enabled=True,
                                  nelems=4096, hops=32, seed=1))
    assert r.run.cache_stats.insertions >= 5


def test_pointer_params_validation():
    with pytest.raises(ValueError):
        PointerParams(**GM, nelems=4, hops=0)
    with pytest.raises(ValueError):
        PointerParams(machine=GM_MARENOSTRUM, nthreads=8, nelems=4)


# ----------------------------------------------------------------- update

def test_update_only_thread0_communicates():
    r = run_update(UpdateParams(**GM, cache_enabled=True, seed=2,
                                nelems=2048, hops=12))
    m = r.run.metrics
    # All remote traffic originates from thread 0.
    assert m.get_remote.count + m.get_shm.count + m.get_local.count \
        == 12 * 3  # reads_per_hop
    assert r.check[0] is not None


def test_update_functional_equivalence():
    a = run_update(UpdateParams(**GM, cache_enabled=True, seed=5,
                                nelems=1024, hops=10))
    b = run_update(UpdateParams(**GM, cache_enabled=False, seed=5,
                                nelems=1024, hops=10))
    assert a.check == b.check


def test_update_improvement_more_modest_than_pointer():
    # Figure 9: Update (11-22%) sits well below Pointer (30-60%).
    kw = dict(machine=GM_MARENOSTRUM, nthreads=16, threads_per_node=4,
              seed=1)
    pt_on = run_pointer(PointerParams(cache_enabled=True, **kw))
    pt_off = run_pointer(PointerParams(cache_enabled=False, **kw))
    up_on = run_update(UpdateParams(cache_enabled=True, **kw))
    up_off = run_update(UpdateParams(cache_enabled=False, **kw))
    imp_pt = 1 - pt_on.elapsed_us / pt_off.elapsed_us
    imp_up = 1 - up_on.elapsed_us / up_off.elapsed_us
    assert imp_up < imp_pt


# ------------------------------------------------------------ neighborhood

def test_neighborhood_functional_equivalence():
    a = run_neighborhood(NeighborhoodParams(**GM, cache_enabled=True,
                                            seed=4, dim=64, samples=8,
                                            distance=5))
    b = run_neighborhood(NeighborhoodParams(**GM, cache_enabled=False,
                                            seed=4, dim=64, samples=8,
                                            distance=5))
    assert a.check == b.check


def test_neighborhood_tiny_cache_working_set():
    # Figure 8b: neighbours only — "only a few cache entries are used".
    r = run_neighborhood(NeighborhoodParams(
        machine=GM_MARENOSTRUM, nthreads=16, threads_per_node=2,
        cache_enabled=True, seed=1, dim=128, samples=16))
    # Each node's cache holds at most its two neighbour nodes.
    stats = r.run.cache_stats
    assert stats.insertions <= 2 * 8  # 2 entries x 8 nodes
    assert stats.hit_rate > 0.8


def test_neighborhood_param_validation():
    with pytest.raises(ValueError):
        NeighborhoodParams(**GM, dim=8)          # too few rows
    with pytest.raises(ValueError):
        NeighborhoodParams(**GM, dim=64, distance=0)
    with pytest.raises(ValueError):
        NeighborhoodParams(**GM, dim=64, distance=5,
                           boundary_fraction=1.5)


# ----------------------------------------------------------------- field

def test_field_counts_all_matches_exactly():
    """The UPC search must find exactly what a serial numpy scan finds."""
    import numpy as np
    from repro.util.rng import seeded_rng
    from repro.workloads.dis.field import _count_matches

    p = FieldParams(**GM, cache_enabled=True, seed=11, nelems=4096,
                    token_len=3, ntokens=2, alphabet=4)
    r = run_field(p)
    # Serial reference on the same generated input.
    rng = seeded_rng(p.seed, 0xF1E1D)
    words = rng.integers(0, p.alphabet, size=p.nelems, dtype=np.uint64)
    tokens = [rng.integers(0, p.alphabet, size=p.token_len,
                           dtype=np.uint64) for _ in range(p.ntokens)]
    expect = sum(_count_matches(words, tok) for tok in tokens)
    assert sum(r.check) == expect


def test_field_functional_equivalence():
    a = run_field(FieldParams(**GM, cache_enabled=True, seed=9,
                              nelems=4096, ntokens=2))
    b = run_field(FieldParams(**GM, cache_enabled=False, seed=9,
                              nelems=4096, ntokens=2))
    assert a.check == b.check


def test_field_gm_gains_lapi_flat():
    # Sections 4.6 vs 4.7: the progress asymmetry.
    def imp(machine, tpn):
        on = run_field(FieldParams(machine=machine, nthreads=16,
                                   threads_per_node=tpn,
                                   cache_enabled=True, seed=1))
        off = run_field(FieldParams(machine=machine, nthreads=16,
                                    threads_per_node=tpn,
                                    cache_enabled=False, seed=1))
        assert on.check == off.check
        return 1 - on.elapsed_us / off.elapsed_us

    gm = imp(GM_MARENOSTRUM, 4)
    lapi = imp(LAPI_POWER5, 8)
    assert gm > 0.08
    assert abs(lapi) < 0.08
    assert gm > 2 * abs(lapi)


def test_field_param_validation():
    with pytest.raises(ValueError):
        FieldParams(**GM, token_len=1)
    with pytest.raises(ValueError):
        FieldParams(**GM, nelems=16)
