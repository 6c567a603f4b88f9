"""Experiment harness: reproduces every evaluation figure.

:data:`EXPERIMENTS` is the one table of what the repo regenerates
(DESIGN.md section 4) and at which scales.  ``python -m repro <name>``,
the campaign ``figure`` cell kind, the built-in ``paper`` campaign and
``scripts/make_experiments.py`` (which writes EXPERIMENTS.md) all read
it; none of them carries a size, scale or seed list of its own.

Every runner returns a :class:`FigureResult` with ``rows()`` (list of
dicts) and ``render()`` (aligned text table, the shape EXPERIMENTS.md
embeds).
"""

from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from repro.experiments.harness import (
    PairedRun,
    micro_pair,
    paired_run,
    repeat_ci,
)
from repro.experiments.figures import (
    FigureResult,
    GM_SCALES,
    LAPI_SCALES,
    fig6_get,
    fig6_put,
    fig7,
    fig8,
    fig9,
    miss_overhead,
)
from repro.experiments.ablations import (
    ablation_eager_threshold,
    ablation_eviction,
    ablation_piggyback,
    ablation_pinning,
    ablation_progress,
    ablation_transports,
    bulk_pipeline,
    corner_turn,
)
from repro.experiments.capacity import capacity_speedup
from repro.experiments.report import render_table
from repro.experiments.scalability import (
    address_space_ablation,
    allocation_latency,
    directory_memory,
)


class Experiment(NamedTuple):
    """One regenerable table: ``run(**quick)`` is the seconds-long look
    (``python -m repro <name> --quick``, campaign cells), ``run(**full)``
    the scale EXPERIMENTS.md records."""

    run: Callable[..., FigureResult]
    quick: Mapping[str, object]
    full: Mapping[str, object]
    #: The section title in EXPERIMENTS.md; ``E`` numbers are the
    #: paper's own figures, ``X`` numbers extensions beyond them.
    heading: str


_FIG6_QUICK = [1, 64, 1024, 16384, 262144, 4194304]
_GM_QUICK = [(8, 2), (32, 8), (128, 32)]
_LAPI_QUICK = [(4, 2), (32, 2), (128, 8)]

#: In EXPERIMENTS.md heading order.  Simulating the top GM point (2048
#: threads) costs minutes of wall clock, so Figure 9a's ``full`` stops
#: at 1024 threads / 256 nodes; Figure 8 runs one seed and goes all
#: the way.
EXPERIMENTS: Mapping[str, Experiment] = MappingProxyType({
    "fig6_get": Experiment(
        fig6_get, dict(sizes=_FIG6_QUICK, reps=5), dict(reps=10),
        "E1 — Figure 6 (left): GET improvement vs size"),
    "fig6_put": Experiment(
        fig6_put, dict(sizes=_FIG6_QUICK, reps=5), dict(reps=10),
        "E2 — Figure 6 (right): PUT improvement vs size"),
    "fig7": Experiment(
        fig7, dict(reps=5), dict(reps=10),
        "E3 — Figure 7: absolute GET latency, small messages"),
    "fig8a": Experiment(
        partial(fig8, "pointer"), dict(scales=_GM_QUICK, seed=1),
        dict(scales=GM_SCALES, seed=1),
        "E4 — Figure 8a: Pointer hit rate vs scale"),
    "fig8b": Experiment(
        partial(fig8, "neighborhood"), dict(scales=_GM_QUICK, seed=1),
        dict(scales=GM_SCALES, seed=1),
        "E5 — Figure 8b: Neighborhood hit rate vs scale"),
    "fig9a": Experiment(
        partial(fig9, "gm"), dict(scales=_GM_QUICK, seeds=(1, 2)),
        dict(scales=GM_SCALES[:-1], seeds=(1, 2, 3)),
        "E6 — Figure 9a: DIS improvement, hybrid GM"),
    "fig9b": Experiment(
        partial(fig9, "lapi"), dict(scales=_LAPI_QUICK, seeds=(1, 2)),
        dict(scales=LAPI_SCALES, seeds=(1, 2, 3)),
        "E7 — Figure 9b: DIS improvement, hybrid LAPI"),
    "miss_overhead": Experiment(
        miss_overhead, dict(seeds=(1, 2, 3)),
        dict(seeds=(1, 2, 3, 4, 5)),
        "E8 — Section 6: miss overhead"),
    "directory_memory": Experiment(
        directory_memory, {}, {},
        "X1 — Section 2 rationale: directory memory"),
    "address_ablation": Experiment(
        address_space_ablation, {}, dict(allocs_per_thread=30),
        "X2 — Section 2 rationale: identical-addresses ablation"),
    "alloc_latency": Experiment(
        allocation_latency, {}, dict(node_counts=[2, 8, 32, 128]),
        "X3 — upc_all_alloc latency vs machine size"),
    "capacity": Experiment(
        capacity_speedup, dict(threads=32, nodes=8),
        dict(threads=64, nodes=16),
        "X4 — Section 4.5: the memory/speedup compromise"),
    "ablation_piggyback": Experiment(
        ablation_piggyback, dict(threads=16, nodes=4, hops=48), {},
        "X5 — Section 3 ablation: piggyback vs dedicated address fetch"),
    "ablation_pinning": Experiment(
        ablation_pinning, dict(threads=16, nodes=4, hops=24), {},
        "X6 — Section 3.1 ablation: pin-everything vs chunked pinning"),
    "ablation_eviction": Experiment(
        ablation_eviction, dict(capacities=[8]), {},
        "X7 — Section 4.5 ablation: eviction policy"),
    "ablation_progress": Experiment(
        ablation_progress, dict(scales=[(32, 8)]), {},
        "X8 — Sections 4.6-4.7 ablation: polling vs interrupt progress"),
    "ablation_transports": Experiment(
        ablation_transports, dict(threads=16, hops=48), {},
        "X9 — Section 2 ablation: the cache across four transports"),
    "ablation_eager_threshold": Experiment(
        ablation_eager_threshold,
        dict(thresholds_kb=[1, 4, 16, 64, 256], reps=6), {},
        "X10 — Section 5 ablation: the eager/rendezvous crossover"),
    "corner_turn": Experiment(
        corner_turn, dict(threads=16, dim=64), {},
        "X11 — Corner Turn (DIS extension workload)"),
    "bulk_pipeline": Experiment(
        bulk_pipeline, dict(blocks=[4, 16, 64]), {},
        "X12 — bulk-transfer engine: pipeline and coalescing"),
})

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PairedRun",
    "paired_run",
    "repeat_ci",
    "micro_pair",
    "FigureResult",
    "fig6_get",
    "fig6_put",
    "fig7",
    "fig8",
    "fig9",
    "miss_overhead",
    "GM_SCALES",
    "LAPI_SCALES",
    "render_table",
]
