"""Unit tests for the pin-down (registration) cache."""

import pytest

from repro.memory import PinLimitError, PinManager, RegistrationCache


def make_cache(capacity=64 * 1024):
    pm = PinManager(0)
    return RegistrationCache(pm, capacity_bytes=capacity), pm


def test_first_registration_costs_then_hit_is_free():
    rc, _ = make_cache()
    c1 = rc.register(0x1000, 4096)
    c2 = rc.register(0x1000, 4096)
    assert c1 > 0 and c2 == 0.0
    assert rc.hits == 1 and rc.misses == 1


def test_lazy_eviction_when_over_capacity():
    rc, pm = make_cache(capacity=8192)
    rc.register(0x1000, 4096)
    rc.register(0x10_000, 4096)
    cost = rc.register(0x20_000, 4096)  # must evict the LRU region
    assert rc.evictions == 1
    assert cost > 0  # includes the unpin of the victim
    assert not pm.is_pinned(0x1000, 4096)
    assert pm.is_pinned(0x20_000, 4096)


def test_lru_order_recency_protects_hot_regions():
    rc, pm = make_cache(capacity=8192)
    rc.register(0x1000, 4096)
    rc.register(0x10_000, 4096)
    rc.register(0x1000, 4096)  # refresh region 1
    rc.register(0x20_000, 4096)  # evicts region 2, not region 1
    assert pm.is_pinned(0x1000, 4096)
    assert not pm.is_pinned(0x10_000, 4096)


def test_region_larger_than_capacity_rejected():
    rc, _ = make_cache(capacity=4096)
    with pytest.raises(PinLimitError):
        rc.register(0x1000, 8192)


def test_invalidate_on_free_unpins():
    rc, pm = make_cache()
    rc.register(0x1000, 4096)
    cost = rc.invalidate(0x1000, 4096)
    assert cost > 0
    assert not pm.is_pinned(0x1000, 4096)
    assert rc.resident_bytes == 0


def test_eviction_leaves_memory_the_cache_never_pinned():
    # An object arena pinned by its owner stays pinned until it is
    # freed (section 3.1), even when a transfer inside it was cached
    # and then evicted.
    rc, pm = make_cache(capacity=8192)
    pm.pin(0x1000, 4096)
    rc.register(0x1000, 4096)
    rc.register(0x10_000, 4096)
    rc.register(0x20_000, 4096)  # evicts 0x1000, which owns nothing
    assert rc.evictions == 1
    assert pm.is_pinned(0x1000, 4096)
    assert rc.invalidate(0x1000, 4096) == 0.0
    assert rc.invalidate(0x10_000, 4096) > 0
    assert pm.is_pinned(0x1000, 4096) and not pm.is_pinned(0x10_000, 4096)
    assert pm.pin_calls == 3 and pm.unpin_calls == 1


def test_hit_rate_reporting():
    rc, _ = make_cache()
    assert rc.hit_rate == 0.0
    rc.register(0x1000, 4096)
    rc.register(0x1000, 4096)
    rc.register(0x1000, 4096)
    assert rc.hit_rate == pytest.approx(2 / 3)


def test_capacity_must_be_positive():
    pm = PinManager(0)
    with pytest.raises(PinLimitError):
        RegistrationCache(pm, capacity_bytes=0)
