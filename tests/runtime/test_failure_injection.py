"""Failure injection: platform limits and misuse must fail loudly."""

import pytest
from dataclasses import replace

from repro.memory import PinLimitError
from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.util.units import KB


def test_pin_total_limit_surfaces_as_run_error():
    """GM's DMAable-memory cap (§3.3): if the machine can't pin the
    object on first remote touch, the run fails with PinLimitError —
    not a hang, not a silent wrong answer."""
    tiny = replace(
        GM_MARENOSTRUM,
        transport=GM_MARENOSTRUM.transport.with_overrides(
            max_pin_total_bytes=4 * KB))
    cfg = RuntimeConfig(machine=tiny, nthreads=4, threads_per_node=2,
                        seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        # 64 KB arena per node — far beyond the 4 KB pin budget.
        arr = yield from th.all_alloc(64 * KB, blocksize=None, dtype="u1")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40 * KB)   # first touch pins
        yield from th.barrier()

    rt.spawn(kernel)
    with pytest.raises(PinLimitError):
        rt.run()


def test_pin_limit_does_not_trigger_when_cache_disabled():
    """Without the cache nothing pins, so the same program runs."""
    tiny = replace(
        GM_MARENOSTRUM,
        transport=GM_MARENOSTRUM.transport.with_overrides(
            max_pin_total_bytes=4 * KB))
    cfg = RuntimeConfig(machine=tiny, nthreads=4, threads_per_node=2,
                        cache_enabled=False, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(64 * KB, blocksize=None, dtype="u1")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 40 * KB)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()  # must complete


def test_chunked_policy_survives_small_pin_budget():
    """The §3.1 'more elaborated technique': chunked pinning keeps the
    registered footprint bounded where pin-everything would blow the
    budget."""
    from repro.core import PinningPolicy
    tiny = replace(
        GM_MARENOSTRUM,
        transport=GM_MARENOSTRUM.transport.with_overrides(
            max_pin_total_bytes=8 * KB))
    cfg = RuntimeConfig(machine=tiny, nthreads=4, threads_per_node=2,
                        pinning_policy=PinningPolicy.CHUNKED,
                        pin_chunk_bytes=2 * KB, seed=1)
    rt = Runtime(cfg)

    def kernel(th):
        arr = yield from th.all_alloc(64 * KB, blocksize=None, dtype="u1")
        yield from th.barrier()
        if th.id == 0:
            v = yield from th.get(arr, 40 * KB)
            _ = v
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()  # chunked: only the touched 2 KB chunk pins
    pinned = rt.pinned_table(1).pinned_bytes
    assert 0 < pinned <= 8 * KB


def test_double_spawn_runs_both_programs():
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                        threads_per_node=2, seed=1)
    rt = Runtime(cfg)
    log = []

    def a(th):
        yield from th.compute(1.0)
        log.append(("a", th.id))

    def b(th):
        yield from th.compute(2.0)
        log.append(("b", th.id))

    rt.spawn(a)
    rt.spawn(b)
    rt.run()
    assert len(log) == 4
