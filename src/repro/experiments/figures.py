"""Runners for every evaluation figure of the paper.

Each ``figN`` function sweeps the paper's x-axis, runs the paired
(cache off / cache on) simulations, and returns a
:class:`FigureResult` whose ``render()`` emits the table embedded in
EXPERIMENTS.md.

Scales follow the paper's axes:

* Figure 9a (GM / MareNostrum): 8 threads on 2 nodes up to 2048
  threads on 512 nodes, 4 threads per blade;
* Figure 9b (LAPI / Power5): 4 threads on 2 nodes up to 448 threads on
  28 nodes (the paper varies threads per node up to 16);
* Figure 8 uses the GM scale with address-cache capacities 4/10/100.

Which sizes, scales and seeds each entry point actually runs is
decided in one place, :data:`repro.experiments.EXPERIMENTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import micro_pair, repeat_ci
from repro.experiments.report import render_table
from repro.network.params import (
    GM_MARENOSTRUM,
    LAPI_POWER5,
    MachineParams,
)
from repro.util.stats import improvement_pct
from repro.workloads.micro import (
    FIG6_SIZES,
    FIG7_SIZES,
    get_roundtrip_us,
    put_overhead_us,
)
from repro.workloads.dis.field import FieldParams, run_field
from repro.workloads.dis.neighborhood import (
    NeighborhoodParams,
    run_neighborhood,
)
from repro.workloads.dis.pointer import PointerParams, run_pointer
from repro.workloads.dis.update import UpdateParams, run_update

#: Figure 8/9a x-axis: (threads, nodes), 4 threads per node.
GM_SCALES: List[Tuple[int, int]] = [
    (8, 2), (16, 4), (32, 8), (64, 16), (128, 32), (256, 64),
    (512, 128), (1024, 256), (2048, 512),
]
#: Figure 9b x-axis: (threads, nodes) on the 28-node Power5 cluster.
LAPI_SCALES: List[Tuple[int, int]] = [
    (4, 2), (8, 2), (16, 2), (32, 2), (64, 4), (128, 8),
    (256, 16), (448, 28),
]


@dataclass
class FigureResult:
    """A reproduced figure: rows of data plus rendering metadata."""

    figure_id: str
    title: str
    columns: List[str]
    _rows: List[Dict] = field(default_factory=list)

    def add(self, **row) -> None:
        self._rows.append(row)

    def rows(self) -> List[Dict]:
        return list(self._rows)

    def series(self, column: str) -> List:
        return [r.get(column) for r in self._rows]

    def render(self) -> str:
        return render_table(self._rows, self.columns,
                            title=f"{self.figure_id}: {self.title}")


# ---------------------------------------------------------------------------
# Figure 6: latency improvement vs message size.
# ---------------------------------------------------------------------------

def _micro_improvement(fn: Callable[..., float], machine: MachineParams,
                       size: int, reps: int) -> float:
    return improvement_pct(*micro_pair(fn, machine, size, reps))


def fig6_get(sizes: Optional[Sequence[int]] = None,
             reps: int = 10) -> FigureResult:
    """Figure 6 (left): GET round-trip improvement %, GM and LAPI."""
    sizes = list(sizes or FIG6_SIZES)
    fig = FigureResult(
        figure_id="Figure 6 (left)",
        title="xlupc_distr_get latency improvement using the address "
              "cache (%)",
        columns=["size_bytes", "gm_pct", "lapi_pct"],
    )
    for size in sizes:
        fig.add(
            size_bytes=size,
            gm_pct=_micro_improvement(get_roundtrip_us, GM_MARENOSTRUM,
                                      size, reps),
            lapi_pct=_micro_improvement(get_roundtrip_us, LAPI_POWER5,
                                        size, reps),
        )
    return fig


def fig6_put(sizes: Optional[Sequence[int]] = None,
             reps: int = 10) -> FigureResult:
    """Figure 6 (right): PUT overhead improvement %, GM and LAPI.

    LAPI goes deeply negative for small messages — the measurement
    that made the paper disable RDMA PUT on that platform.
    """
    sizes = list(sizes or FIG6_SIZES)
    fig = FigureResult(
        figure_id="Figure 6 (right)",
        title="xlupc_distr_put latency improvement using the address "
              "cache (%)",
        columns=["size_bytes", "gm_pct", "lapi_pct"],
    )
    for size in sizes:
        fig.add(
            size_bytes=size,
            gm_pct=_micro_improvement(put_overhead_us, GM_MARENOSTRUM,
                                      size, reps),
            lapi_pct=_micro_improvement(put_overhead_us, LAPI_POWER5,
                                        size, reps),
        )
    return fig


# ---------------------------------------------------------------------------
# Figure 7: absolute small-message GET latency.
# ---------------------------------------------------------------------------

def fig7(sizes: Optional[Sequence[int]] = None,
         reps: int = 10) -> FigureResult:
    """Figure 7: GET latency (µs) with and without the cache."""
    sizes = list(sizes or FIG7_SIZES)
    fig = FigureResult(
        figure_id="Figure 7",
        title="GET latency (us) with/without the address cache, small "
              "messages",
        columns=["size_bytes", "gm_nocache_us", "gm_cache_us",
                 "lapi_nocache_us", "lapi_cache_us"],
    )
    for size in sizes:
        row = {"size_bytes": size}
        for prefix, machine in (("gm", GM_MARENOSTRUM),
                                ("lapi", LAPI_POWER5)):
            (row[f"{prefix}_nocache_us"],
             row[f"{prefix}_cache_us"]) = micro_pair(
                get_roundtrip_us, machine, size, reps)
        fig.add(**row)
    return fig


# ---------------------------------------------------------------------------
# Figure 8: hit rate vs scale for cache capacities 4/10/100.
# ---------------------------------------------------------------------------

def _pointer_params(threads: int, nodes: int, machine: MachineParams,
                    seed: int, capacity: int = 100,
                    hops: int = 0) -> PointerParams:
    # Real DIS runs are long; scale the chain with the machine so
    # compulsory misses and first-touch pinning amortize (the paper's
    # hit-rate study, Figure 8a, likewise reflects steady state).
    if hops <= 0:
        hops = max(48, min(2 * nodes, 256))
    return PointerParams(
        machine=machine, nthreads=threads,
        threads_per_node=threads // nodes,
        cache_capacity=capacity, seed=seed,
        nelems=max(1 << 14, threads * 16),
        hops=hops, work_us=0.2,
    )


def _neighborhood_params(threads: int, nodes: int, machine: MachineParams,
                         seed: int, capacity: int = 100,
                         ) -> NeighborhoodParams:
    return NeighborhoodParams(
        machine=machine, nthreads=threads,
        threads_per_node=threads // nodes,
        cache_capacity=capacity, seed=seed,
        dim=threads * 24,       # fixed 24-row strips per thread
        width=64,               # keep the data plane bounded at scale
        distance=10, samples=32, iterations=3,
    )


def fig8(workload: str = "pointer",
         scales: Optional[Sequence[Tuple[int, int]]] = None,
         capacities: Sequence[int] = (4, 10, 100),
         seed: int = 1) -> FigureResult:
    """Figure 8: address-cache hit rate vs scale per capacity.

    ``workload`` is "pointer" (8a: degrading) or "neighborhood"
    (8b: flat near 1.0).
    """
    scales = list(scales or GM_SCALES)
    makers = {"pointer": (_pointer_params, run_pointer),
              "neighborhood": (_neighborhood_params, run_neighborhood)}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    make, run = makers[workload]
    cols = ["threads", "nodes"] + [f"hit_cap{c}" for c in capacities]
    fig = FigureResult(
        figure_id=f"Figure 8{'a' if workload == 'pointer' else 'b'}",
        title=f"{workload.capitalize()}: cache hit rate vs scale",
        columns=cols,
    )
    for threads, nodes in scales:
        row = {"threads": threads, "nodes": nodes}
        for cap in capacities:
            kw = {"capacity": cap}
            if workload == "pointer":
                # Longer chains amortize the compulsory misses, as in
                # the paper's long-running stressmark.
                kw["hops"] = 96
            result = run(make(threads, nodes, GM_MARENOSTRUM, seed, **kw))
            row[f"hit_cap{cap}"] = round(result.hit_rate, 3)
        fig.add(**row)
    return fig


# ---------------------------------------------------------------------------
# Figure 9: DIS improvement vs scale on both platforms.
# ---------------------------------------------------------------------------

def _update_params(threads: int, nodes: int, machine: MachineParams,
                   seed: int) -> UpdateParams:
    return UpdateParams(
        machine=machine, nthreads=threads,
        threads_per_node=threads // nodes, seed=seed,
        # Long chains keep thread 0's measured work dominant over the
        # collective setup/teardown, and amortize first-touch pinning
        # across the (nodes - 1) partners, at every scale.
        nelems=max(1 << 14, threads * 16),
        hops=max(192, 8 * nodes),
    )


def _field_params(threads: int, nodes: int, machine: MachineParams,
                  seed: int) -> FieldParams:
    return FieldParams(
        machine=machine, nthreads=threads,
        threads_per_node=threads // nodes, seed=seed,
        nelems=1024 * threads, ntokens=8,
    )


_FIG9_WORKLOADS = [
    ("pointer", _pointer_params, run_pointer),
    ("update", _update_params, run_update),
    ("neighborhood", _neighborhood_params, run_neighborhood),
    ("field", _field_params, run_field),
]


def fig9(platform: str = "gm",
         scales: Optional[Sequence[Tuple[int, int]]] = None,
         seeds: Sequence[int] = (1, 2, 3)) -> FigureResult:
    """Figure 9: DIS stressmark improvement % vs scale.

    ``platform`` is "gm" (9a, hybrid GM on MareNostrum) or "lapi"
    (9b, hybrid LAPI on the Power5 cluster).
    """
    if platform == "gm":
        machine, default_scales, sub = GM_MARENOSTRUM, GM_SCALES, "a"
    elif platform == "lapi":
        machine, default_scales, sub = LAPI_POWER5, LAPI_SCALES, "b"
    else:
        raise ValueError(f"unknown platform {platform!r}")
    scales = list(scales or default_scales)
    cols = (["threads", "nodes"]
            + [name for name, _, _ in _FIG9_WORKLOADS]
            + [f"{name}_ci" for name, _, _ in _FIG9_WORKLOADS])
    fig = FigureResult(
        figure_id=f"Figure 9{sub}",
        title=f"DIS address-cache improvement (%) on hybrid "
              f"{machine.name}",
        columns=cols[:2 + len(_FIG9_WORKLOADS)],
    )
    for threads, nodes in scales:
        row: Dict = {"threads": threads, "nodes": nodes}
        for name, make, run in _FIG9_WORKLOADS:
            ci = repeat_ci(run, make(threads, nodes, machine, 0),
                           seeds=list(seeds))
            if ci.n == 0:
                # Every repetition of this cell was degenerate
                # (zero-elapsed baseline); report the hole instead of
                # aborting the whole figure sweep.
                row[name] = None
                row[f"{name}_ci"] = None
            else:
                row[name] = round(ci.mean, 1)
                row[f"{name}_ci"] = round(ci.half_width, 1)
        fig.add(**row)
    return fig


# ---------------------------------------------------------------------------
# Section 6 claim: miss overhead <= 2%.
# ---------------------------------------------------------------------------

def miss_overhead(threads: int = 16, nodes: int = 16,
                  seeds: Sequence[int] = (1, 2, 3)) -> FigureResult:
    """Overhead of *unsuccessful* caching attempts.

    Runs Pointer with the cache machinery enabled but capacity 0:
    every lookup misses, every piggyback is wasted, nothing is ever
    reused.  The slowdown vs the cache-disabled baseline is the
    paper's "overhead of unsuccessful attempts" — claimed "typically
    1.5% and never worse than 2%" (section 6).
    """
    fig = FigureResult(
        figure_id="Section 6",
        title="Overhead of unsuccessful caching attempts (%)",
        columns=["seed", "overhead_pct", "elapsed_pct"],
    )
    for seed in seeds:
        # Long runs amortize first-touch pinning, and one thread per
        # node removes NIC-sharing noise: what remains is the pure
        # per-miss bookkeeping the claim is about.  ``overhead_pct``
        # compares mean remote-GET latency (the per-attempt cost the
        # claim quantifies); ``elapsed_pct`` the end-to-end runtimes.
        params = replace(
            _pointer_params(threads, nodes, GM_MARENOSTRUM, seed,
                            hops=192),
            threads_per_node=1)
        miss = run_pointer(replace(params, cache_capacity=0))
        baseline = run_pointer(replace(params, cache_enabled=False))
        if baseline.check != miss.check:
            raise AssertionError("functional divergence in miss-overhead run")
        per_op = -improvement_pct(baseline.run.metrics.get_remote.mean,
                                  miss.run.metrics.get_remote.mean)
        elapsed = -improvement_pct(baseline.elapsed_us, miss.elapsed_us)
        fig.add(seed=seed, overhead_pct=round(per_op, 2),
                elapsed_pct=round(elapsed, 2))
    return fig
