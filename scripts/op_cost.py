#!/usr/bin/env python
"""What one logical op costs the interpreter, counted not timed.

Usage:
    python scripts/op_cost.py WORKLOAD [--scale 0.05] [--seed 7] [--top 25]

Runs one repetition of a ``bench/workloads.py`` workload (read-only
import; nothing under ``bench/`` is touched) under ``sys.settrace``
with per-opcode events on and prints, per logical op: interpreter
opcodes, Python-level calls, the generator-frame entries among those
calls (every resumption of a generator counts one), numpy calls (the
``sys.setprofile`` ``c_call`` events whose callee is numpy's: a
function of the numpy package or a method of one of its types),
simulator events,
cyclic garbage (the objects ``gc.collect()`` finds after the
repetition, run with the collector disabled: what refcounting could
not free) and peak bytes (``tracemalloc``'s high-water mark over one
more, untraced repetition: a proxy for the benchmark's peak RSS that,
unlike RSS, barely moves run to run), then the same opcodes and calls summed by layer (the map of
``bench/layers.py``, also imported read-only; code outside
``src/repro`` is ``other``), then the functions ranked by *self*
opcodes.
``shard_traffic`` runs its shards in-process (``mode="inproc"``,
untraced): a tracer in this process cannot see into ``mp`` workers.

Why a count: on the shared 2-vCPU box wall time moves ±10 % between
identical runs, which is as large as most per-op savings.  The opcode
count repeats exactly run to run (``PYTHONHASHSEED=0`` is forced, as
``bench/child.py`` does), so it ranks candidates that a timer cannot.
It is a count, not a speed: C-level work (numpy, heapq, dict probes)
is one opcode here whatever it costs, so a claimed gain is still
measured with ``bench/run.py``; the numpy line counts the C calls an
opcode count cannot see.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import os
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"


def is_numpy(fn) -> bool:
    """Whether a C callable belongs to numpy: its module's, or (a bound
    method such as ``ndarray.copy``) that of its receiver's type."""
    module = (getattr(fn, "__module__", None)
              or type(getattr(fn, "__self__", None)).__module__)
    return module == "numpy" or module.startswith("numpy.")


def count(workload, inputs):
    """Run ``workload`` once under the tracer, the cyclic collector off;
    returns the outcome, self opcodes and calls per code object, the
    numpy C calls, and the number of objects only the collector could
    free."""
    opcodes = Counter()
    calls = Counter()
    numpy_calls = [0]

    def on_c_call(frame, event, arg):
        if event == "c_call" and is_numpy(arg):
            numpy_calls[0] += 1

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    gc.collect()
    gc.disable()
    sys.settrace(on_call)
    sys.setprofile(on_c_call)
    try:
        outcome = workload.run(inputs)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        garbage = gc.collect()
        gc.enable()
    return outcome, opcodes, calls, numpy_calls[0], garbage


def peak_bytes(workload, inputs) -> int:
    """The most bytes ``tracemalloc`` saw allocated at once during one
    untraced repetition of ``workload``."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.run(inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def label(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        path = Path(*path.parts[-2:])
    name = getattr(code, "co_qualname", code.co_name)   # 3.11+
    return f"{path}:{code.co_firstlineno} {name}"


def by_layer(counts, layer_of_repro) -> Counter:
    """Sum per-code-object counts into bench/layers.py's layers."""
    total = Counter()
    for code, n in counts.items():
        try:
            rel = Path(code.co_filename).relative_to(REPRO)
        except ValueError:
            total["other"] += n
            continue
        total[layer_of_repro(rel.as_posix())] += n
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order a few sets; pin them so the count repeats.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import bench.workloads
    from bench.layers import layer_of_repro
    from bench.workloads import WORKLOADS
    run_kv_traffic = bench.workloads.run_kv_traffic

    def run_inproc(params, **kw):
        return run_kv_traffic(params, **{**kw, "mode": "inproc"})

    bench.workloads.run_kv_traffic = run_inproc
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    outcome, by_code, calls, numpy_calls, garbage = count(
        w, w.generate(args.seed, args.scale))
    nops, ncalls = sum(by_code.values()), sum(calls.values())
    # A generator's every resumption is a "call" event: these are the
    # frame re-entries a deep ``yield from`` chain pays per event.
    ngen = sum(n for code, n in calls.items()
               if code.co_flags & inspect.CO_GENERATOR)
    if outcome.failed:
        print(f"oracle failed: {outcome.failed} of {outcome.ops} ops",
              file=sys.stderr)
        return 1

    ops = outcome.ops
    events = outcome.counters["sim.core.events"]
    peak = peak_bytes(w, w.generate(args.seed, args.scale))
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{ops} ops")
    print(f"  opcodes/op  {nops / ops:10.1f}   ({nops} total)")
    print(f"  calls/op    {ncalls / ops:10.1f}   ({ncalls} total)")
    print(f"  gen entries/op {ngen / ops:7.2f}   ({ngen} total)")
    print(f"  events/op   {events / ops:10.2f}   ({events} total)")
    print(f"  garbage/op  {garbage / ops:10.2f}   ({garbage} total)")
    print(f"  peak bytes/op {peak / ops:8.1f}   ({peak} total)")
    print(f"  numpy calls/op {numpy_calls / ops:7.2f}   "
          f"({numpy_calls} total)")
    layer_ops = by_layer(by_code, layer_of_repro)
    layer_calls = by_layer(calls, layer_of_repro)
    print(f"\n  {'opcodes/op':>10}  {'share':>6}  {'calls/op':>8}  layer")
    for name, n in layer_ops.most_common():
        print(f"  {n / ops:10.1f}  {n / nops:6.1%}  "
              f"{layer_calls[name] / ops:8.2f}  {name}")
    print(f"\n  {'opcodes/op':>10}  {'share':>6}  {'calls/op':>8}  function")
    for code, n in by_code.most_common(args.top):
        print(f"  {n / ops:10.1f}  {n / nops:6.1%}  "
              f"{calls[code] / ops:8.2f}  {label(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
