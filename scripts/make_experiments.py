#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every figure and record
paper-vs-measured.

Usage:
    python scripts/make_experiments.py [--quick] [--out EXPERIMENTS.md]

``--quick`` truncates the scale sweeps (used by CI/tests); the default
runs the evaluation at the scales recorded in EXPERIMENTS.md
(GM up to 1024 threads / 256 nodes for Figure 9a, the full paper axes
elsewhere).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    GM_SCALES,
    LAPI_SCALES,
    fig6_get,
    fig6_put,
    fig7,
    fig8,
    fig9,
    miss_overhead,
)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python scripts/make_experiments.py``.  All numbers are
produced by the simulator substrate described in DESIGN.md; per the
substitution rule we compare *shapes* (who wins, by what factor, where
crossovers fall), not testbed-absolute values.  Improvement numbers
use the paper's metric ``100 (Z - W) / Z`` and every paired run is
checked to produce bit-identical functional results with the cache on
and off before any time is reported.

Machine models: ``GM_MARENOSTRUM`` (Myrinet/GM, polling progress,
~250 MB/s, 1/3/5-hop Clos) and ``LAPI_POWER5`` (HPS/LAPI, interrupt
progress, 8x bandwidth, RDMA latency premium); see
``src/repro/network/params.py`` for the calibrated constants.
"""

FIG6_GET_NOTES = """\
**Paper:** GET gains ~30% (GM) and ~16% (LAPI) for messages up to
1 KB; "even larger gains (around 40%)" for 1-16 KB; gains fade as
bandwidth dominates, later on LAPI ("fadding out at 2 MByte") because
HPS has 8x Myrinet's bandwidth.

**Measured:** GM 29-34% small rising into the mid-size range, then
collapsing once the 16 KB rendezvous cut-over removes the copies from
the uncached path too; LAPI 16% small rising to ~40% and holding until
the 1 MB eager limit, near zero at 4 MB.  Shape reproduced.
"""

FIG6_PUT_NOTES = """\
**Paper:** GM shows "no benefit ... up to 2 KBytes" (PUT returns at
local hand-off either way) and gains in the mid-size range from copy
avoidance.  LAPI shows "a net decrease in performance of up to 200%"
for small PUTs — the HPS RDMA mode buys throughput with latency, and
the uncached PUT overlaps the target's work with the next send — which
is why the paper *disabled* the address cache for LAPI PUTs.

**Measured:** GM within ±5% below 2 KB, peaking ~20% at 16 KB; LAPI
-245% at tiny sizes, recovering with size and crossing to positive
near 64 KB.  Shape reproduced (our floor slightly exceeds -200%; the
paper's plot clips at -250%).
"""

FIG7_NOTES = """\
**Paper:** absolute GET round trips for small messages: GM ~19-20 us
uncached vs ~13 us cached at 1 B (rising to ~60/~40 us at 8 KB); LAPI
~10-12 vs ~9-10 us (to ~32/~20 us at 8 KB).  Raw network round trips
are 4-8 us on both fabrics.

**Measured:** GM 19.0 -> 13.3 us at 1 B, 66 -> 45 us at 8 KB; LAPI
11.8 -> 9.9 us at 1 B, 18 -> 14 us at 8 KB.  Calibration within the
paper's axes.
"""

FIG8_NOTES = """\
**Paper (8a):** Pointer accesses the whole machine, so the per-node
working set is (nodes - 1) entries: hit rate degrades as the machine
grows, and collapses earliest for the 4-entry cache, latest for the
100-entry cache.

**Paper (8b):** Neighborhood only talks to its stencil partners: "only
a few cache entries are used and the hit ratio keeps constant as we
scale", independent of capacity.

**Measured:** both properties hold (monotone degradation ordered by
capacity for Pointer; flat ~0.95 for Neighborhood at every capacity).
"""

FIG9_GM_NOTES = """\
**Paper:** Pointer 30-60% (amplified by four threads sharing each
blade's NIC), Update 11-22% ("corresponds to the ... microbenchmarks"),
Neighborhood 10-20% (3/16 of accesses potentially remote), Field
35-40% (GM makes no progress while CPUs scan locally, so uncached
overhang accesses wait "abnormally large" times).

**Measured:** Pointer 25-45%, Update 10-24%, Neighborhood 15-21% — all
inside or near the paper's bands.  Field reproduces *directionally* at
9-18%: the pathology (uncached overhang GETs with heavy-tailed waits,
confirmed by the state view — see tests/trace) and the GM-vs-LAPI
asymmetry are present, but our progress model is conservative: any
thread blocked in a *network* operation polls and can service its
node's handlers, which caps the waits more aggressively than the real
GM port's single-port-lock behaviour did.  See the
``bench_ablation_progress`` ablation for the isolated mechanism.
"""

FIG9_LAPI_NOTES = """\
**Paper:** Pointer/Update/Neighborhood "comparable to the measurements
on MareNostrum"; Field "markedly different ... the effects of the
address cache are not measurable" because LAPI overlaps communication
and computation.

**Measured:** Pointer 13-35%, Update 8-11%, Neighborhood 9-11%, Field
within ±2% of zero at every scale.  The asymmetry between Figures 9a
and 9b — the paper's key qualitative claim about progress engines —
reproduces cleanly.
"""

MISS_NOTES = """\
**Paper (section 6):** "The overhead of unsuccessful attempts to cache
remote addresses is relatively small, typically 1.5% and never worse
than 2%."

**Measured:** per-attempt overhead 1.0-1.9% across seeds (capacity-0
cache: every lookup misses, every piggyback is wasted), matching the
claim.  End-to-end elapsed deltas are noisier (contention reshuffles)
but stay within ~3%.
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args()

    if args.quick:
        gm9 = [(8, 2), (32, 8)]
        lapi9 = [(4, 2), (32, 2)]
        fig8_scales = [(8, 2), (32, 8), (128, 32)]
        seeds = (1, 2)
        reps = 5
    else:
        gm9 = [s for s in GM_SCALES if s[0] <= 1024]
        lapi9 = LAPI_SCALES
        fig8_scales = GM_SCALES
        seeds = (1, 2, 3)
        reps = 10

    sections = []

    def run(title, notes, fn):
        t0 = time.time()
        fig = fn()
        dt = time.time() - t0
        print(f"[{dt:7.1f}s] {title}", flush=True)
        sections.append(f"## {title}\n\n{notes}\n```\n{fig.render()}\n```\n")

    run("E1 — Figure 6 (left): GET improvement vs size",
        FIG6_GET_NOTES, lambda: fig6_get(reps=reps))
    run("E2 — Figure 6 (right): PUT improvement vs size",
        FIG6_PUT_NOTES, lambda: fig6_put(reps=reps))
    run("E3 — Figure 7: absolute GET latency, small messages",
        FIG7_NOTES, lambda: fig7(reps=reps))
    run("E4 — Figure 8a: Pointer hit rate vs scale",
        FIG8_NOTES, lambda: fig8("pointer", scales=fig8_scales, seed=1))
    run("E5 — Figure 8b: Neighborhood hit rate vs scale",
        "(see the notes under Figure 8a)",
        lambda: fig8("neighborhood", scales=fig8_scales, seed=1))
    run("E6 — Figure 9a: DIS improvement, hybrid GM",
        FIG9_GM_NOTES, lambda: fig9("gm", scales=gm9, seeds=seeds))
    run("E7 — Figure 9b: DIS improvement, hybrid LAPI",
        FIG9_LAPI_NOTES, lambda: fig9("lapi", scales=lapi9, seeds=seeds))
    run("E8 — Section 6: miss overhead",
        MISS_NOTES, lambda: miss_overhead(seeds=(1, 2, 3, 4, 5)))

    # --- extensions beyond the paper's figures --------------------------
    from repro.experiments.scalability import (
        address_space_ablation,
        allocation_latency,
        directory_memory,
    )

    run("X1 — Section 2 rationale: directory memory",
        "Quantifies the design discussion of section 2.1: the SVD's "
        "per-node metadata is machine-size independent, the rejected "
        "full address table grows as O(nodes x objects), and the "
        "paper's compromise — the bounded address cache — stays under "
        "its 100-entry cap.",
        lambda: directory_memory(objects=32))
    run("X2 — Section 2 rationale: identical-addresses ablation",
        "The other rejected alternative: forcing every allocation to "
        "the same virtual address on all nodes makes each node's "
        "address space carry everyone's allocations and holes "
        "(\"it tends to fragment the address space\").",
        lambda: address_space_ablation(nodes=16, threads_per_node=4,
                                       allocs_per_thread=30))
    from repro.experiments.capacity import capacity_speedup

    run("X4 — Section 4.5: the memory/speedup compromise",
        "Figure 8 shows the hit-rate side of the compromise; this "
        "table shows the speedup side: Pointer improvement vs cache "
        "capacity at 64 threads / 16 nodes.  The curve saturates once "
        "the (nodes - 1)-entry working set fits — the case for the "
        "100-entry default.",
        lambda: capacity_speedup(threads=64, nodes=16))
    run("X3 — upc_all_alloc latency vs machine size",
        "The collective allocation path is a barrier + broadcast "
        "tree: per-node cost falls with scale, consistent with the "
        "SVD design scaling to BlueGene/L sizes [8].",
        lambda: allocation_latency(node_counts=[2, 8, 32, 128]))

    with open(args.out, "w") as fh:
        fh.write(HEADER + "\n" + "\n".join(sections))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
