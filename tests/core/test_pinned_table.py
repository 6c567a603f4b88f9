"""Unit tests for the pinned address table: the one registry of a node's
pinned memory, whose regions are owned by an object handle (pinned
until free, section 3.1) or by the pin-down cache (lazily deregistered,
LRU, section 3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PinnedAddressTable, PinningPolicy
from repro.core.pinned_table import UNPINNABLE
from repro.core.policy import ranges_to_pin
from repro.memory import PinLimitError
from repro.obs import PIN, EventLog
from tests.core.pin_log import PinLog

PAGE = 4096


def make_table(**kw):
    return PinLog(0, **kw)


def owned_by(table, handle):
    return [r for r in table.regions.values() if r[2] == handle]


# -- object registration ------------------------------------------------


def test_register_pins_and_costs_once():
    t = make_table()
    c1, ok1 = t.register("h", 0x1000, 8192)
    c2, ok2 = t.register("h", 0x1000, 8192)
    assert ok1 and ok2
    assert c1 > 0 and c2 == 0.0
    assert t.is_pinned(0x1000, 8192)
    assert len(t) == 1
    assert len(owned_by(t, "h")) == 1


def test_register_failure_returns_flag_and_error():
    t = make_table(max_total_bytes=4096)
    cost, ok = t.register("h", 0x1000, 8192)
    assert not ok and cost == 0.0
    assert isinstance(t.last_pin_error, PinLimitError)
    assert len(t) == 0 and not t.is_pinned(0x1000, 8192)


def test_unpinnable_mark_cleared_on_unregister():
    t = make_table()
    t.handles["h"] = UNPINNABLE
    t.free("h", 0x1000, 4096)
    assert "h" not in t.handles


def test_lookup_phys_only_for_pinned():
    t = make_table()
    assert t.lookup_phys(0x5000) is None
    t.register("h", 0x5000, 4096)
    base = t.lookup_phys(0x5000)
    assert base is not None
    assert t.lookup_phys(0x5010) == base + 0x10
    assert t.lookup_phys(0x6000) is None


def test_chunked_registration_creates_multiple_entries():
    # LAPI-style 32MB handle cap ⇒ several regions per object.
    t = make_table(max_region_bytes=4096)
    t.register("big", 0x10_000, 3 * 4096)
    assert len(t) == 3
    assert len(owned_by(t, "big")) == 3


def test_unregister_handle_unpins_and_reports():
    t = make_table()
    t.register("h", 0x1000, 4096)
    t.register("i", 0x9000, 4096)
    cost = t.free("h", 0x1000, 4096)
    assert cost > 0 and t.unpin_calls == 1
    assert not t.is_pinned(0x1000, 4096)
    assert t.is_pinned(0x9000, 4096)
    assert len(t) == 1


def test_unregister_unknown_handle_is_noop():
    t = make_table()
    assert t.free("ghost", 0x1000, 4096) == 0.0
    assert t.unpin_calls == 0


def test_time_accounting():
    t = make_table()
    pin, _ = t.register("h", 0x1000, 4096)
    unpin = t.free("h", 0x1000, 4096)
    assert pin > 0
    assert unpin > pin  # dereg costs more (3.3)


def test_lookup_phys_raises_on_a_programming_error():
    # Only "not pinned" means None; anything else is a bug to surface.
    t = make_table()
    t.register("h", 0x1000, 4096)
    with pytest.raises((TypeError, ValueError)):
        t.lookup_phys("0x1000")


# -- ownership: the pin-down cache gives way to objects -----------------


def test_region_unpinned_behind_the_tables_back_is_repinned_at_full_cost():
    # A region the pin-down cache evicted is gone for everyone: an
    # object that registers it next pays the full pin.
    t = make_table(capacity_bytes=8192)
    c1 = t.register_lazy(0x1000, 8192)
    t.register_lazy(0x10_000, 8192)          # evicts 0x1000
    assert not t.is_pinned(0x1000, 8192)
    c2, ok = t.register("h", 0x1000, 8192)
    assert ok and c2 == c1 > 0
    assert t.pin_calls == 3
    assert t.is_pinned(0x1000, 8192)


def test_region_pinned_by_another_owner_is_tabled_with_a_zero_cost_pin():
    t = make_table()
    t.events = EventLog()
    t.register_lazy(0x1000, 8192)   # the pin-down cache got there first
    cost, ok = t.register("h", 0x1000, 8192)
    assert ok and cost == 0.0
    assert len(t) == 1 and len(owned_by(t, "h")) == 1
    [pin] = t.events.by_kind(PIN)
    assert pin.attrs["cost"] == 0.0 and pin.attrs["regions"] == 1
    # Now the handle's: the repeat changes nothing and records nothing.
    assert t.register("h", 0x1000, 8192) == (0.0, True)
    assert len(t.events.by_kind(PIN)) == 1


def test_chunked_touches_pin_each_new_chunk_once():
    t = make_table()
    base, size, chunk = 0x10_000, 4 * 4096, 4096
    spent = []

    def touch(offset):
        for vaddr, span in ranges_to_pin(PinningPolicy.CHUNKED, base, size,
                                         offset, 8, chunk_bytes=chunk):
            cost, ok = t.register("h", vaddr, span)
            assert ok
            spent.append(cost)

    touch(0)
    assert t.pin_calls == 1
    touch(2 * chunk + 16)
    assert t.pin_calls == 2 and t.is_pinned(base + 2 * chunk, chunk)
    touch(2 * chunk + 64)
    assert t.pin_calls == 2 and spent[-1] == 0.0
    assert not t.is_pinned(base + chunk, chunk)


def test_eviction_never_deregisters_an_objects_memory():
    # The pin-down cache cached a transfer, an object then registered
    # the same memory: the cache's eviction leaves it pinned.
    t = make_table(capacity_bytes=8192)
    t.register_lazy(0x1000, 4096)
    t.register("h", 0x1000, 4096)
    t.register_lazy(0x10_000, 4096)
    t.register_lazy(0x20_000, 4096)          # evicts the 0x1000 range
    assert t.evictions == 1
    assert t.is_pinned(0x1000, 4096)
    assert t.regions[0x1000][2] == "h"


def test_free_drops_the_arena_whoever_owns_it():
    t = make_table()
    t.register_lazy(0x1000, 4096)            # a transfer into the arena
    t.register_lazy(0x9000, 4096)            # one elsewhere
    t.handles["h"] = (True, t.lookup_phys(0x1000))
    assert t.free("h", 0x1000, 8192) > 0
    assert not t.is_pinned(0x1000, 4096) and t.is_pinned(0x9000, 4096)
    assert "h" not in t.handles
    assert t.cached_bytes == 4096            # the cache forgot the range
    assert t.register_lazy(0x1000, 4096) > 0


# -- the pin-down cache (section 3.3) -----------------------------------


def test_first_registration_costs_then_hit_is_free():
    rc = make_table(capacity_bytes=64 * 1024)
    c1 = rc.register_lazy(0x1000, 4096)
    c2 = rc.register_lazy(0x1000, 4096)
    assert c1 > 0 and c2 == 0.0
    assert rc.hits == 1 and rc.misses == 1


def test_lazy_eviction_when_over_capacity():
    rc = make_table(capacity_bytes=8192)
    rc.register_lazy(0x1000, 4096)
    rc.register_lazy(0x10_000, 4096)
    cost = rc.register_lazy(0x20_000, 4096)  # must evict the LRU region
    assert rc.evictions == 1
    assert cost > 0  # includes the unpin of the victim
    assert not rc.is_pinned(0x1000, 4096)
    assert rc.is_pinned(0x20_000, 4096)


def test_lru_order_recency_protects_hot_regions():
    rc = make_table(capacity_bytes=8192)
    rc.register_lazy(0x1000, 4096)
    rc.register_lazy(0x10_000, 4096)
    rc.register_lazy(0x1000, 4096)  # refresh region 1
    rc.register_lazy(0x20_000, 4096)  # evicts region 2, not region 1
    assert rc.is_pinned(0x1000, 4096)
    assert not rc.is_pinned(0x10_000, 4096)


def test_region_larger_than_capacity_rejected():
    rc = make_table(capacity_bytes=4096)
    with pytest.raises(PinLimitError):
        rc.register_lazy(0x1000, 8192)


def test_invalidate_on_free_unpins():
    rc = make_table()
    rc.register_lazy(0x1000, 4096)
    cost = rc.free("h", 0x1000, 4096)
    assert cost > 0
    assert not rc.is_pinned(0x1000, 4096)
    assert rc.cached_bytes == 0


def test_eviction_leaves_memory_the_cache_never_pinned():
    # An object arena pinned by its owner stays pinned until it is
    # freed (section 3.1), even when a transfer inside it was cached
    # and then evicted.
    rc = make_table(capacity_bytes=8192)
    rc.register("h", 0x1000, 4096)
    rc.register_lazy(0x1000, 4096)
    rc.register_lazy(0x10_000, 4096)
    rc.register_lazy(0x20_000, 4096)  # evicts 0x1000, which owns nothing
    assert rc.evictions == 1
    assert rc.is_pinned(0x1000, 4096)
    assert rc.free("x", 0x10_000, 4096) > 0
    assert rc.is_pinned(0x1000, 4096) and not rc.is_pinned(0x10_000, 4096)
    assert rc.pin_calls == 3 and rc.unpin_calls == 1


def test_capacity_must_be_positive():
    with pytest.raises(PinLimitError):
        PinnedAddressTable(0, capacity_bytes=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=60))
def test_property_residency_never_exceeds_capacity(slots):
    """Whatever the registration stream (disjoint per-buffer regions,
    as the transport issues), cached bytes stay within the cache
    budget and match the pinned bytes exactly."""
    capacity = 8 * PAGE
    rc = make_table(page_size=PAGE, capacity_bytes=capacity)
    for slot in slots:
        size = (slot % 4 + 1) * PAGE   # fixed size per slot → no overlap
        rc.register_lazy(0x10_000 + slot * 32 * PAGE, size)
        assert rc.cached_bytes <= capacity
        assert rc.cached_bytes == rc.pinned_bytes
    assert rc.hits + rc.misses == len(slots)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=80))
def test_property_repeat_registrations_hit(stream):
    """Re-registering a resident region is always free and a hit."""
    rc = PinnedAddressTable(1, page_size=PAGE, capacity_bytes=100 * PAGE)
    resident = set()
    for slot in stream:
        cost = rc.register_lazy(0x1000 + slot * 8 * PAGE, PAGE)
        if slot in resident:
            assert cost == 0.0
        else:
            assert cost > 0.0
            resident.add(slot)


# -- one registry under any stream ----------------------------------------

_ARENAS = 4          # object handles 0..3, arena k at 0x10_000 * (k + 1)
_ARENA = 8 * PAGE

_STEP = st.one_of(
    st.tuples(st.just("register"), st.integers(0, _ARENAS - 1),
              st.integers(0, 7), st.integers(1, 8)),
    st.tuples(st.just("lazy"), st.integers(0, _ARENAS - 1),
              st.integers(0, 7), st.integers(1, 8)),
    st.tuples(st.just("free"), st.integers(0, _ARENAS - 1),
              st.just(0), st.just(0)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=40), st.sampled_from([None, 2]))
def test_property_one_owner_per_region_under_any_stream(steps, chunk):
    """Handle registers, pin-down cache registers and frees in any
    order: regions never overlap and each has one owner, the pinned
    bytes are the regions' sum, the cache stays within its capacity,
    and a freed handle owns nothing and has no entry."""
    capacity = 6 * PAGE
    t = PinnedAddressTable(0, page_size=PAGE, capacity_bytes=capacity,
                           max_region_bytes=chunk and chunk * PAGE)
    freed = set()
    for kind, k, first, pages in steps:
        arena = 0x10_000 * (k + 1)
        vaddr = arena + first * PAGE
        size = min(pages, 8 - first) * PAGE
        if kind == "register":
            assert t.register(k, vaddr, size)[1]
            assert t.is_pinned(vaddr, size)
            freed.discard(k)
        elif kind == "lazy" and size <= capacity:
            t.register_lazy(vaddr, size)
            assert t.is_pinned(vaddr, size)
        elif kind == "free":
            t.free(k, arena, _ARENA)
            freed.add(k)
            assert not any(arena <= s < arena + _ARENA for s in t.regions)
        regions = sorted(t.regions.values())
        assert [r[0] for r in regions] == sorted(t.regions)
        for (_, end, _), (start, _, _) in zip(regions, regions[1:]):
            assert end <= start
        assert t.pinned_bytes == sum(e - s for s, e, _ in regions)
        lazy = sum(e - s for s, e, owner in regions if owner is None)
        assert lazy <= t.cached_bytes <= capacity
        owners = {owner for _, _, owner in regions}
        assert not owners & freed
        assert not set(t.handles) & freed


def test_freeing_a_region_shared_with_a_neighbour_drops_its_entry():
    # A cached transfer spanning two arenas is one region; the first
    # object to register takes it over, the second finds it pinned.
    # Freeing the first deregisters it, so the second's entry must go
    # and its next touch re-pins.
    t = make_table()
    t.register_lazy(0x1000, 2 * PAGE)
    assert t.register("a", 0x1000, PAGE) == (0.0, True)
    assert t.register("b", 0x1000 + PAGE, PAGE) == (0.0, True)
    t.handles["b"] = (True, t.lookup_phys(0x1000 + PAGE))
    t.free("a", 0x1000, PAGE)
    assert "b" not in t.handles
    assert not t.is_pinned(0x1000 + PAGE, PAGE)
    cost, ok = t.register("b", 0x1000 + PAGE, PAGE)
    assert ok and cost > 0 and t.regions[0x1000 + PAGE][2] == "b"
