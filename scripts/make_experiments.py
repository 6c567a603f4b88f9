#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every row of
``repro.experiments.EXPERIMENTS`` and record paper-vs-measured.

Usage:
    python scripts/make_experiments.py [--quick] [--out EXPERIMENTS.md]

This file owns the whole of EXPERIMENTS.md: the prose (header, one
note per table, closing note) lives here, the runners and their scales
in the table.  The default runs each experiment at its ``full`` preset
(the scales EXPERIMENTS.md records, ~10 min); ``--quick`` at its
``quick`` one (~20 s).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS

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

#: One note per EXPERIMENTS row: what the paper says, what we measure.
NOTES = {
    "fig6_get": """\
**Paper:** GET gains ~30% (GM) and ~16% (LAPI) for messages up to
1 KB; "even larger gains (around 40%)" for 1-16 KB; gains fade as
bandwidth dominates, later on LAPI ("fadding out at 2 MByte") because
HPS has 8x Myrinet's bandwidth.

**Measured:** GM 29-34% small rising into the mid-size range, then
collapsing once the 16 KB rendezvous cut-over removes the copies from
the uncached path too; LAPI 16% small rising to ~40% and holding until
the 1 MB eager limit, near zero at 4 MB.  Shape reproduced.
""",
    "fig6_put": """\
**Paper:** GM shows "no benefit ... up to 2 KBytes" (PUT returns at
local hand-off either way) and gains in the mid-size range from copy
avoidance.  LAPI shows "a net decrease in performance of up to 200%"
for small PUTs — the HPS RDMA mode buys throughput with latency, and
the uncached PUT overlaps the target's work with the next send — which
is why the paper *disabled* the address cache for LAPI PUTs.

**Measured:** GM 2-5% up to 256 B and 10% at 1 KB, peaking ~20% at
16 KB; LAPI -243% at tiny sizes, recovering with size and crossing to
positive between 16 and 64 KB.  Shape reproduced (our floor slightly
exceeds -200%; the paper's plot clips at -250%).
""",
    "fig7": """\
**Paper:** absolute GET round trips for small messages: GM ~19-20 us
uncached vs ~13 us cached at 1 B (rising to ~60/~40 us at 8 KB); LAPI
~10-12 vs ~9-10 us (to ~32/~20 us at 8 KB).  Raw network round trips
are 4-8 us on both fabrics.

**Measured:** GM 18.9 -> 13.2 us at 1 B, 66.4 -> 44.5 us at 8 KB; LAPI
11.8 -> 9.8 us at 1 B, 18.3 -> 13.7 us at 8 KB.  Calibration within
the paper's axes.
""",
    "fig8a": """\
**Paper (8a):** Pointer accesses the whole machine, so the per-node
working set is (nodes - 1) entries: hit rate degrades as the machine
grows, and collapses earliest for the 4-entry cache, latest for the
100-entry cache.

**Paper (8b):** Neighborhood only talks to its stencil partners: "only
a few cache entries are used and the hit ratio keeps constant as we
scale", independent of capacity.

**Measured:** both properties hold (monotone degradation ordered by
capacity for Pointer; flat 0.95-0.96 for Neighborhood at every
capacity).
""",
    "fig8b": """\
(see the notes under Figure 8a)
""",
    "fig9a": """\
**Paper:** Pointer 30-60% (amplified by four threads sharing each
blade's NIC), Update 11-22% ("corresponds to the ... microbenchmarks"),
Neighborhood 10-20% (3/16 of accesses potentially remote), Field
35-40% (GM makes no progress while CPUs scan locally, so uncached
overhang accesses wait "abnormally large" times).

**Measured:** Pointer 32-46% up to 512 threads, Update 19-27%,
Neighborhood 16-21% — inside or near the paper's bands; at 1024
threads / 256 nodes Pointer falls to 23% (Figure 8a has its 100-entry
hit rate down to 0.33 there) and Update to 10%.  Field reproduces
*directionally* at 9-18%: the pathology (uncached overhang GETs with
heavy-tailed waits, confirmed by the state view — see tests/trace) and
the GM-vs-LAPI asymmetry are present, but our progress model is
conservative: any thread blocked in a *network* operation polls and
can service its node's handlers, which caps the waits more
aggressively than the real GM port's single-port-lock behaviour did.
See the ``ablation_progress`` row (X8) for the isolated mechanism.
""",
    "fig9b": """\
**Paper:** Pointer/Update/Neighborhood "comparable to the measurements
on MareNostrum"; Field "markedly different ... the effects of the
address cache are not measurable" because LAPI overlaps communication
and computation.

**Measured:** Pointer 10-34%, Update 9-12%, Neighborhood 6-11%, Field
within ±2% of zero at every scale.  The asymmetry between Figures 9a
and 9b — the paper's key qualitative claim about progress engines —
reproduces cleanly.
""",
    "miss_overhead": """\
**Paper (section 6):** "The overhead of unsuccessful attempts to cache
remote addresses is relatively small, typically 1.5% and never worse
than 2%."

**Measured:** per-attempt overhead 1.2-1.95% across seeds (capacity-0
cache: every lookup misses, every piggyback is wasted), matching the
claim.  End-to-end elapsed deltas are noisier (contention reshuffles)
but stay within ~3%.
""",
    "directory_memory": """\
Quantifies the design discussion of section 2.1: the SVD's per-node
metadata is machine-size independent, the rejected full address table
grows as O(nodes x objects), and the paper's compromise — the bounded
address cache — stays under its 100-entry cap.
""",
    "address_ablation": """\
The other rejected alternative: forcing every allocation to the same
virtual address on all nodes makes each node's address space carry
everyone's allocations and holes ("it tends to fragment the address
space").
""",
    "alloc_latency": """\
The collective allocation path is a barrier + broadcast tree: per-node
cost falls with scale, consistent with the SVD design scaling to
BlueGene/L sizes [8].
""",
    "capacity": """\
Figure 8 shows the hit-rate side of the compromise; this table shows
the speedup side: Pointer improvement vs cache capacity at 64 threads
/ 16 nodes.  The curve saturates once the (nodes - 1)-entry working
set fits — the case for the 100-entry default.
""",
    "ablation_piggyback": """\
How the miss path learns remote addresses.  **Paper (section 3):** the
base address is piggybacked "either on the data stream or on the ACK
message".  The strawman alternative is a dedicated address-fetch round
trip before the first RDMA; piggybacking must win on first-touch
latency (one round trip instead of two) while ending at the same
steady-state hit rate.

**Measured:** the explicit fetch runs Pointer 4% slower than the
integrated piggyback at the same 0.95 hit rate; with population
disabled the cache never helps (hit rate 0, 94% slower).  All three
modes compute the same answer.
""",
    "ablation_pinning": """\
**Paper (section 3.1):** the greedy policy pins the *whole* object on
first touch; the "more elaborated technique" pins chunks on demand,
respecting per-call and total registration limits, "obtaining similar
results".

**Measured:** 42.5% vs 42.2% on a 2 MB array at 64 threads (33.1% vs
27.8% at the 16-thread quick scale, where the chunked policy's extra
first-touch registrations amortise over fewer hops) — similar, as
claimed.
""",
    "ablation_eviction": """\
Section 4.5 frames cache size as "a compromise between memory usage
and speedup"; the eviction policy decides how gracefully a too-small
cache degrades.  On Pointer's uniform-random node stream no policy can
beat another by much (there is no recency structure to exploit).

**Measured:** LRU, FIFO and RANDOM stay within 0.01 of each other at
every capacity below the 15-entry working set — the paper's choice of
a plain hash table is justified.
""",
    "ablation_progress": """\
The paper attributes Field's GM-only gains to missing communication/
computation overlap (sections 4.6 vs 4.7).  This ablation isolates the
mechanism: Field on the *same* GM cost model, flipping only the
progress engine.  If the explanation is right, the interrupt variant's
improvement must collapse toward LAPI-like levels even though every
other GM parameter (bandwidth, overheads, RDMA costs) is unchanged.

**Measured:** 16% with polling, 4.5% with interrupt progress, at every
scale — the pathology, and hence the cache's Field win, needs polling.
""",
    "ablation_transports": """\
Section 2 lists TCP/IP sockets, LAPI, Myrinet/GM and the BlueGene/L
messaging framework as implemented transports.  The cache's benefit is
a property of the *fabric* — it requires one-sided operations to
unlock — so the same random-access workload runs everywhere: GM and
BG/L (RDMA-capable, polling), LAPI (RDMA-capable, interrupt: gains on
GETs) and TCP (two-sided only: the cache is inert by construction, the
negative control).

**Measured:** GM 51%, BG/L 46%, LAPI 13%, TCP exactly 0 with a hit
rate of 0.
""",
    "ablation_eager_threshold": """\
**Paper (section 5):** MPI implementations "follow a differential
approach based on message size, switching between preallocated
registered memory buffers (Bounce Buffers) for short messages and
dynamic memory registration ... (Rendezvous) for large ones.  The
crossover point between the protocols is dependent on the underlying
network hardware and software, requiring tuning for each machine."

**Measured:** uncached GET latency at three fixed sizes while GM's
``eager_max_bytes`` moves across them.  At 2 KB the two protocols are
within 3% (the pin-down cache is warm, so the crossover is flat at
small sizes — which is exactly why it "requires tuning"); at 32 KB and
128 KB a threshold above the message keeps paying double copies and
the rendezvous (zero-copy) side wins by 1.4-1.5x.
""",
    "corner_turn": """\
Not in the paper's four-stressmark subset, but in the DIS suite it
ports from: a distributed transpose that exercises the multiblocked-
array machinery with an all-to-all tile exchange.  Regular schedule +
bounded partner set -> solid gains on RDMA-capable fabrics.

**Measured:** GM 32% (hit rate 0.67 at 64 threads, 0.83 at the
16-thread quick scale), LAPI 20%; the transpose is verified against
NumPy on every run.
""",
    "bulk_pipeline": """\
Not a paper figure — this quantifies the engine added on top of the
reproduced runtime (DESIGN.md S21): a multi-block ``memget`` whose
remote half used to pay one blocking round trip per block now
coalesces arena-contiguous blocks and keeps ``bulk_max_inflight``
messages on the wire.  Three configurations of the one engine
isolate the two mechanisms: serial (window 1, coalescing off: one
blocking round trip per block), pipeline-only (coalescing off) and
the full engine at defaults; the event columns are the
substrate-efficiency view (the coalesced messages also make the
*simulation itself* cheaper).

**Measured:** at 16 remote blocks 3.0x faster in virtual time with
70% fewer simulator events (2.4x from pipelining alone); 6.3x and 84%
at 256 blocks.
""",
}

CLOSING_NOTE = """\
## Note — bulk-transfer engine and the paper figures

`memget`/`memput`/`gather` now run through the pipelined
bulk-transfer engine (`repro.runtime.bulk`; see DESIGN.md S21).  The
paper figures above are unaffected: every transfer they time is a
single affine segment (the microbenchmarks stay inside one remote
block and Field's overhang never exceeds a block), and single
segments pass through the engine unsplit and unmerged — one wire message, the same protocol choice, the same
virtual time (`tests/test_calibration.py` still enforces the shape
bands, and `tests/runtime/test_bulk_engine.py` pins the serial path,
window 1 without coalescing, to its virtual times bit for bit).  The
engine's own gains on genuinely multi-block spans are the
`bulk_pipeline` row (X12) above.
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args(argv)

    sections = []
    for name, exp in EXPERIMENTS.items():
        t0 = time.time()
        fig = exp.run(**(exp.quick if args.quick else exp.full))
        print(f"[{time.time() - t0:7.1f}s] {exp.heading}", flush=True)
        sections.append(f"## {exp.heading}\n\n{NOTES[name]}\n"
                        f"```\n{fig.render()}\n```\n")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join([HEADER, *sections, CLOSING_NOTE]))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
