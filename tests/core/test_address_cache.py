"""Unit + property tests for the remote address cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EvictionPolicy, RemoteAddressCache
from repro.runtime.handle import ALL_PARTITION, SVDHandle


def test_miss_then_insert_then_hit():
    c = RemoteAddressCache(capacity=10)
    addr, cost = c.lookup("h1", 3)
    assert addr is None and cost > 0
    c.insert("h1", 3, 0xB000)
    addr, _ = c.lookup("h1", 3)
    assert addr == 0xB000
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_same_handle_different_nodes_are_distinct_entries():
    # The key is (SVD handle, node id) — section 3.
    c = RemoteAddressCache(capacity=10)
    c.insert("h1", 1, 0xA)
    c.insert("h1", 2, 0xB)
    assert c.lookup("h1", 1)[0] == 0xA
    assert c.lookup("h1", 2)[0] == 0xB
    assert len(c) == 2


def test_update_existing_entry_counts_as_update():
    c = RemoteAddressCache(capacity=10)
    c.insert("h", 0, 0x1)
    c.insert("h", 0, 0x2)
    assert c.lookup("h", 0)[0] == 0x2
    assert c.stats.insertions == 1 and c.stats.updates == 1
    assert len(c) == 1


def test_lru_eviction_keeps_recently_used():
    c = RemoteAddressCache(capacity=2, policy=EvictionPolicy.LRU)
    c.insert("a", 0, 1)
    c.insert("b", 0, 2)
    c.lookup("a", 0)          # refresh a
    c.insert("c", 0, 3)       # evicts b
    assert ("a", 0) in c and ("c", 0) in c
    assert ("b", 0) not in c
    assert c.stats.evictions == 1


def test_fifo_eviction_ignores_recency():
    c = RemoteAddressCache(capacity=2, policy=EvictionPolicy.FIFO)
    c.insert("a", 0, 1)
    c.insert("b", 0, 2)
    c.lookup("a", 0)          # does not refresh under FIFO
    c.insert("c", 0, 3)       # evicts a (oldest inserted)
    assert ("a", 0) not in c
    assert ("b", 0) in c and ("c", 0) in c


def test_random_eviction_is_deterministic_per_seed():
    def run(seed):
        c = RemoteAddressCache(capacity=3, policy=EvictionPolicy.RANDOM,
                               seed=seed)
        for i in range(10):
            c.insert(f"h{i}", 0, i)
        return tuple(sorted(str(k) for k in c.entries()))

    assert run(7) == run(7)


def test_random_victims_are_those_of_the_dense_key_list():
    # Entries dropped at each step — evictions, a handle's eager
    # invalidation (step 6) and one entry's (step 8) — as the cache drew
    # them before only RANDOM kept the dense key list.
    c = RemoteAddressCache(capacity=4, policy=EvictionPolicy.RANDOM, seed=7)
    dropped = []
    for i in range(12):
        before = set(c.entries())
        c.insert(SVDHandle(ALL_PARTITION, i % 5), i % 3, 100 + i)
        if i == 6:
            c.invalidate_handle(SVDHandle(ALL_PARTITION, 2))
        if i == 8:
            c.invalidate_entry(SVDHandle(ALL_PARTITION, 3), 2)
        dropped.append(sorted((h.index, node) for h, node
                              in before - set(c.entries())))
    assert dropped == [[], [], [], [], [(2, 2)], [(4, 1)], [(3, 0)],
                       [(1, 0)], [(1, 1)], [], [(0, 2)], [(0, 0)]]


@pytest.mark.parametrize("policy", [EvictionPolicy.LRU,
                                    EvictionPolicy.FIFO])
def test_only_a_random_cache_keeps_a_dense_key_list(policy):
    c = RemoteAddressCache(capacity=2, policy=policy)
    for i in range(5):
        c.insert(f"h{i}", 0, i)
    c.invalidate_entry("h4", 0)
    c.invalidate_handle("h3")
    assert c._keys is None and not c._pos and len(c) == 0
    c.insert("h0", 0, 1)
    assert c.invalidate_all() == 1


def test_capacity_zero_stores_nothing():
    c = RemoteAddressCache(capacity=0)
    assert c.insert("h", 0, 1) == 0.0
    assert c.lookup("h", 0)[0] is None
    assert len(c) == 0


def test_disabled_cache_never_hits_and_charges_nothing():
    c = RemoteAddressCache(capacity=100, enabled=False)
    c.insert("h", 0, 1)
    addr, cost = c.lookup("h", 0)
    assert addr is None and cost == 0.0
    assert c.stats.accesses == 0


def test_invalidate_handle_drops_all_nodes():
    # Section 3.1: eager invalidation when the object is deallocated.
    c = RemoteAddressCache(capacity=10)
    for node in range(4):
        c.insert("doomed", node, node)
    c.insert("other", 0, 99)
    dropped = c.invalidate_handle("doomed")
    assert dropped == 4
    assert len(c) == 1
    assert c.lookup("doomed", 2)[0] is None
    assert c.lookup("other", 0)[0] == 99


def test_invalidate_all():
    c = RemoteAddressCache(capacity=10)
    c.insert("a", 0, 1)
    c.insert("b", 1, 2)
    assert c.invalidate_all() == 2
    assert len(c) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        RemoteAddressCache(capacity=-1)


def test_costs_accumulate_in_stats():
    c = RemoteAddressCache(capacity=4, lookup_cost_us=0.1,
                           insert_cost_us=0.2)
    c.lookup("h", 0)
    c.insert("h", 0, 1)
    c.lookup("h", 0)
    assert c.stats.lookup_time_us == pytest.approx(0.2)
    assert c.stats.insert_time_us == pytest.approx(0.2)
    assert c.stats.overhead_us == pytest.approx(0.4)


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(list(EvictionPolicy)),
    ops=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 3)), max_size=120
    ),
)
def test_property_never_exceeds_capacity_and_hits_are_correct(
        capacity, policy, ops):
    """Whatever the access stream: |table| <= capacity and a hit always
    returns the last inserted address for that key."""
    c = RemoteAddressCache(capacity=capacity, policy=policy, seed=1)
    shadow = {}
    for handle, node in ops:
        addr, _ = c.lookup(handle, node)
        if addr is not None:
            assert shadow[(handle, node)] == addr
        new_addr = len(shadow) + 1000 + handle
        c.insert(handle, node, new_addr)
        shadow[(handle, node)] = new_addr
        assert len(c) <= capacity


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_property_hit_rate_bounded_and_consistent(stream):
    c = RemoteAddressCache(capacity=10)
    for node in stream:
        addr, _ = c.lookup("arr", node)
        if addr is None:
            c.insert("arr", node, node + 1)
    s = c.stats
    assert s.accesses == len(stream)
    assert 0.0 <= s.hit_rate <= 1.0
    assert s.hits + s.misses == s.accesses


def test_invalidate_unknown_handle_leaves_no_index_residue():
    """Invalidating a handle with zero cached entries — the common case
    under alloc/free churn, where most frees never had a remote
    reader — must not materialize an empty per-handle index set."""
    c = RemoteAddressCache(capacity=10)
    for i in range(1000):
        assert c.invalidate_handle(f"never-cached-{i}") == 0
    assert c._by_handle == {}
    assert len(c) == 0 and c.stats.invalidations == 0


def test_alloc_free_churn_keeps_index_minimal():
    """Interleave inserts and full-handle invalidations; the secondary
    index must track exactly the handles that still own live entries,
    and a RANDOM cache's dense eviction list must stay in lockstep with
    the table (an LRU cache, the default, keeps none)."""
    for policy in (EvictionPolicy.LRU, EvictionPolicy.RANDOM):
        c = RemoteAddressCache(capacity=64, policy=policy)
        for gen in range(50):
            h = f"h{gen}"
            for node in range(gen % 4):      # gens 0,4,8,... cache nothing
                c.insert(h, node, 0x1000 + gen * 16 + node)
            dropped = c.invalidate_handle(h)
            assert dropped == gen % 4
            assert c.invalidate_handle(h) == 0   # idempotent, no residue
        assert c._by_handle == {}
        assert len(c) == 0
        assert c._pos == {}
        assert c._keys == ([] if policy is EvictionPolicy.RANDOM else None)
