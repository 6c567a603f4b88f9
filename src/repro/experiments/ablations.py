"""The paper's design-space ablations and two extension sweeps.

Each runner isolates one mechanism the paper argues for — flipping it
on otherwise identical inputs — and returns a :class:`FigureResult`
like the figure runners, so it is one more row of
:data:`repro.experiments.EXPERIMENTS` (X5-X12).  What the paper says
about each, and what we measure, is in EXPERIMENTS.md; the shape
claims are held by ``tests/experiments/test_ablations.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

import numpy as np

from repro.core import EvictionPolicy, PinningPolicy
from repro.core.piggyback import PiggybackConfig, PiggybackMode
from repro.experiments.figures import (
    FigureResult,
    _field_params,
    _pointer_params,
)
from repro.experiments.harness import paired_run
from repro.network.params import (
    BGL_TORUS,
    GM_MARENOSTRUM,
    INTERRUPT,
    LAPI_POWER5,
    TCP_CLUSTER,
)
from repro.runtime import Runtime, RuntimeConfig
from repro.util.units import KB
from repro.workloads.dis.corner_turn import (
    CornerTurnParams,
    run_corner_turn,
)
from repro.workloads.dis.field import run_field
from repro.workloads.dis.pointer import PointerParams, run_pointer
from repro.workloads.micro import MicroParams, get_roundtrip_us


def _gm_with(**overrides):
    """GM with only the named transport constants changed."""
    return replace(GM_MARENOSTRUM,
                   transport=GM_MARENOSTRUM.transport.with_overrides(
                       **overrides))


def ablation_piggyback(threads: int = 64, nodes: int = 16,
                       hops: int = 96, seed: int = 1) -> FigureResult:
    """Section 3: the base address rides the data stream vs a
    dedicated address-fetch round trip vs never being learned."""
    fig = FigureResult(
        figure_id="Section 3",
        title=f"Pointer by how the miss path learns remote addresses "
              f"({threads} threads / {nodes} nodes)",
        columns=["mode", "elapsed_us", "hit_rate", "vs_on_data_pct"],
    )
    params = PointerParams(
        machine=GM_MARENOSTRUM, nthreads=threads,
        threads_per_node=threads // nodes, nelems=1 << 14, hops=hops,
        seed=seed)
    runs = [(mode, run_pointer(replace(
        params, piggyback=PiggybackConfig(mode=mode))))
        for mode in (PiggybackMode.ON_DATA, PiggybackMode.EXPLICIT,
                     PiggybackMode.DISABLED)]
    if len({r.check for _, r in runs}) != 1:
        raise AssertionError("functional divergence in piggyback sweep")
    on_data = runs[0][1].elapsed_us
    for mode, r in runs:
        fig.add(mode=mode.value, elapsed_us=round(r.elapsed_us, 1),
                hit_rate=round(r.hit_rate, 3),
                vs_on_data_pct=round(100 * (r.elapsed_us / on_data - 1),
                                     1))
    return fig


def ablation_pinning(threads: int = 64, nodes: int = 16, hops: int = 48,
                     chunk_bytes: int = 64 * KB,
                     seed: int = 1) -> FigureResult:
    """Section 3.1: pin the whole object on first touch vs pin chunks
    on demand ("obtaining similar results"), on a 2 MB array."""
    fig = FigureResult(
        figure_id="Section 3.1",
        title=f"Pointer improvement by pinning policy ({threads} "
              f"threads / {nodes} nodes, 2 MB array, "
              f"{chunk_bytes // KB} KB chunks)",
        columns=["policy", "improvement_pct", "elapsed_us"],
    )
    for policy in (PinningPolicy.PIN_EVERYTHING, PinningPolicy.CHUNKED):
        pair = paired_run(run_pointer, PointerParams(
            machine=GM_MARENOSTRUM, nthreads=threads,
            threads_per_node=threads // nodes, nelems=1 << 18,
            hops=hops, seed=seed, pinning_policy=policy,
            pin_chunk_bytes=chunk_bytes))
        fig.add(policy=policy.value,
                improvement_pct=round(pair.improvement_pct, 1),
                elapsed_us=round(pair.cached.elapsed_us, 1))
    return fig


def ablation_eviction(threads: int = 64, nodes: int = 16,
                      capacities: Sequence[int] = (4, 8, 12),
                      seed: int = 1) -> FigureResult:
    """Section 4.5: how gracefully a too-small cache degrades under
    LRU, FIFO and RANDOM eviction (Pointer's uniform node stream has
    no recency to exploit, so the spread must be modest)."""
    fig = FigureResult(
        figure_id="Section 4.5",
        title=f"Pointer hit rate by eviction policy ({threads} "
              f"threads / {nodes} nodes; working set = {nodes - 1} "
              f"entries)",
        columns=["capacity"] + [p.value for p in EvictionPolicy]
        + ["spread"],
    )
    for cap in capacities:
        rates = {
            policy.value: round(run_pointer(replace(
                _pointer_params(threads, nodes, GM_MARENOSTRUM, seed,
                                capacity=cap, hops=64),
                cache_policy=policy)).hit_rate, 3)
            for policy in EvictionPolicy}
        fig.add(capacity=cap, **rates,
                spread=round(max(rates.values()) - min(rates.values()),
                             3))
    return fig


def ablation_progress(scales: Sequence[Tuple[int, int]] = (
        (32, 8), (64, 16), (128, 32)), seed: int = 1) -> FigureResult:
    """Sections 4.6 vs 4.7: Field on the *same* GM cost model with
    only the progress engine flipped from polling to interrupt."""
    fig = FigureResult(
        figure_id="Sections 4.6-4.7",
        title="Field improvement (%) on GM by progress engine",
        columns=["threads", "nodes", "polling_pct", "interrupt_pct"],
    )
    for threads, nodes in scales:
        polling, interrupt = (
            paired_run(run_field, _field_params(threads, nodes, machine,
                                                seed)).improvement_pct
            for machine in (GM_MARENOSTRUM,
                            _gm_with(progress=INTERRUPT)))
        fig.add(threads=threads, nodes=nodes,
                polling_pct=round(polling, 1),
                interrupt_pct=round(interrupt, 1))
    return fig


def ablation_transports(threads: int = 64, hops: int = 96,
                        seed: int = 1) -> FigureResult:
    """Section 2's transport list: the cache needs one-sided
    operations to unlock, so TCP is the negative control."""
    fig = FigureResult(
        figure_id="Section 2",
        title=f"Pointer improvement by transport ({threads} threads)",
        columns=["machine", "threads_per_node", "improvement_pct",
                 "hit_rate"],
    )
    for machine in (GM_MARENOSTRUM, LAPI_POWER5, BGL_TORUS,
                    TCP_CLUSTER):
        tpn = min(4, machine.default_threads_per_node)
        pair = paired_run(run_pointer, PointerParams(
            machine=machine, nthreads=threads, threads_per_node=tpn,
            nelems=1 << 13, hops=hops, seed=seed))
        fig.add(machine=machine.name, threads_per_node=tpn,
                improvement_pct=round(pair.improvement_pct, 1),
                hit_rate=round(pair.hit_rate, 3))
    return fig


def ablation_eager_threshold(
        thresholds_kb: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128,
                                        256),
        sizes_kb: Sequence[int] = (2, 32, 128),
        reps: int = 10) -> FigureResult:
    """Section 5: uncached GET latency at fixed message sizes while
    GM's eager/rendezvous crossover moves across them."""
    fig = FigureResult(
        figure_id="Section 5",
        title="Uncached GET latency (us) vs GM eager/rendezvous "
              "threshold",
        columns=["eager_max_kb"] + [f"get_{s}kb_us" for s in sizes_kb],
    )
    for threshold in thresholds_kb:
        machine = _gm_with(eager_max_bytes=threshold * KB)
        fig.add(eager_max_kb=threshold, **{
            f"get_{s}kb_us": round(get_roundtrip_us(MicroParams(
                machine=machine, msg_bytes=s * KB, cache_enabled=False,
                reps=reps)), 1)
            for s in sizes_kb})
    return fig


def corner_turn(threads: int = 64, dim: int = 128, tile: int = 4,
                seed: int = 1) -> FigureResult:
    """The DIS Corner Turn stressmark (distributed transpose): an
    all-to-all tile exchange over the multiblocked-array machinery."""
    fig = FigureResult(
        figure_id="Corner Turn",
        title=f"Corner Turn improvement ({dim}x{dim} doubles, "
              f"{tile}x{tile} tiles, {threads} threads)",
        columns=["machine", "threads_per_node", "improvement_pct",
                 "hit_rate"],
    )
    for machine, tpn in ((GM_MARENOSTRUM, 4), (LAPI_POWER5, 8)):
        pair = paired_run(run_corner_turn, CornerTurnParams(
            machine=machine, nthreads=threads, threads_per_node=tpn,
            dim=dim, tile=tile, seed=seed))
        if not pair.cached.check[0]:
            raise AssertionError("corner turn did not transpose")
        fig.add(machine=machine.name, threads_per_node=tpn,
                improvement_pct=round(pair.improvement_pct, 1),
                hit_rate=round(pair.hit_rate, 3))
    return fig


#: Elements per block (u4) of the bulk sweep: 256 B on the wire.
_BULK_BLOCKSIZE = 64


def _bulk_memget(remote_blocks: int, **config):
    """Thread 0 bulk-reads a span alternating local/remote blocks,
    ``remote_blocks`` of them on the other node."""
    nelems = 2 * remote_blocks * _BULK_BLOCKSIZE
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1, **config))
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(nelems, blocksize=_BULK_BLOCKSIZE,
                                      dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(nelems, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["data"] = yield from th.memget(arr, 0, nelems)
        yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    return got["data"], res


def bulk_pipeline(blocks: Sequence[int] = (4, 16, 64, 256),
                  ) -> FigureResult:
    """The bulk-transfer engine on a multi-block ``memget``: serial
    (engine off) vs pipeline-only (coalescing off) vs the full engine,
    in virtual time and in simulator events."""
    fig = FigureResult(
        figure_id="Bulk engine",
        title="memget of alternating local/remote 256 B blocks "
              "(2 threads / 2 nodes): speedup over the serial path",
        columns=["remote_blocks", "pipeline_speedup", "full_speedup",
                 "events_serial", "events_full", "events_saved_pct",
                 "events_per_kib_serial", "events_per_kib_full"],
    )
    for nblocks in blocks:
        (serial, off), (piped, pipe), (full, on) = (
            _bulk_memget(nblocks, **config) for config in (
                dict(bulk_enabled=False),
                dict(bulk_max_coalesce_bytes=0), {}))
        if not (np.array_equal(full, serial)
                and np.array_equal(piped, serial)):
            raise AssertionError("functional divergence in bulk sweep")
        kib = nblocks * _BULK_BLOCKSIZE * 4 / 1024
        fig.add(remote_blocks=nblocks,
                pipeline_speedup=round(off.elapsed_us / pipe.elapsed_us,
                                       2),
                full_speedup=round(off.elapsed_us / on.elapsed_us, 2),
                events_serial=off.sim_events, events_full=on.sim_events,
                events_saved_pct=round(
                    100 * (1 - on.sim_events / off.sim_events), 1),
                events_per_kib_serial=round(off.sim_events / kib, 1),
                events_per_kib_full=round(on.sim_events / kib, 1))
    return fig
