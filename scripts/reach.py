#!/usr/bin/env python
"""What the product reaches: every function in ``src/repro`` that no
product run calls.

Usage:
    python scripts/reach.py

Runs the product run list (:func:`runs`) in this process under a
call-only ``sys.settrace`` (no line or opcode events: each frame entry
records its code object and nothing else), then prints, per file,
every function no run entered and the total of their lines.  A
function nested in an unreached one is counted within it.

The run list is what the project runs and ships: the four
``bench/workloads.py`` workloads as ``bench/child.py`` measures them at
``--quick`` size with the traced repetition on (read-only import;
nothing under ``bench/`` is touched), every ``python -m repro`` command
of ``.github/workflows/ci.yml`` with its exact arguments (each run's
label is its CI command; ``tests/test_reach_map.py`` holds the two
lists together) and the checks CI makes of the trace artifacts, the
smoke campaign in-process, the documented CLI surfaces CI does not
smoke (fault profiles, shards, ``--breakdown``, fault shapes,
``report``, the built-in campaign specs and a spec file), every
``EXPERIMENTS`` row at ``--quick``, and the fast examples.  Forked
processes (the campaign workers) trace themselves and hand their sets
back through a file each.

A trace is a lower bound on what the product needs: error and
retry-exhaustion paths, exception types, the fuzz shrinker, ``__repr__``
and safety checks run only when something goes wrong.  Each such
function is on :data:`DECLARED` with the reason the product keeps it.
The exit status is 1 if an unreached function is not declared there,
or if a declared function is reached (its entry is stale).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"

_REPR = "__repr__: what a failure message and a debugger print"
_FUZZ = ("the fuzz failure recorder and shrinker: they run only when a "
         "program diverges from the oracle, to save and minimise it")
_UPC = ("a UPC intrinsic of the library's kernel API (README's "
        "kernels, tests/runtime); the product's kernels use the "
        "vectorised locate() instead")

#: ``"<file under src/repro>::<qualname>"`` -> why the product keeps a
#: function that no run of the run list calls.
DECLARED = {
    # -- failure paths and safety checks --------------------------------
    "campaign/runner.py::_read_any_checkpoint":
        "a campaign worker died before writing its checkpoint: the cell "
        "becomes a named error instead of a hole",
    "core/pinned_table.py::PinnedAddressTable._evict":
        "the pin-down cache's lazy deregistration once its cached bytes "
        "pass capacity; no product run fills a cache",
    "core/pinned_table.py::PinnedAddressTable._forget":
        "called by _evict (above)",
    "faults/reliability.py::ReliabilityError.__init__":
        "an exception type: raised when a transfer runs out of retries",
    "faults/reliability.py::ReliabilityError.link":
        "names the failed link of a ReliabilityError",
    "runtime/ops.py::OpEngine._check_one_owner":
        "safety check: a single GET/PUT span that crosses a block "
        "boundary is an AffinityError, not a wrong read",
    "runtime/layout.py::BlockCyclicLayout.contiguous_span":
        "the rule _check_one_owner (above) applies",
    "sim/event.py::Event.fail":
        "fails an event, throwing into its waiters: the failure path of "
        "every event",
    "sim/process.py::_Detached.fail":
        "a detached process's failure: kept on the process for the "
        "runtime's end-of-run check",
    "runtime/runtime.py::Runtime._on_policy_decision":
        "puts a repair-policy action on a runtime's recorder; runs when "
        "a policy acts on a runtime link (tests/faults/test_recovery.py)",
    "obs/sampler.py::CounterSampler.backlog_transition":
        "an AM-queue edge pushed by the polling engine while a sampler "
        "records; runs only when handlers queue behind a poller",
    # -- the fuzz failure recorder and shrinker -------------------------
    **{f"testing/program.py::{name}": _FUZZ for name in (
        "Op.to_json", "Op.from_json", "Phase.to_json", "Phase.from_json",
        "ScalarDecl.to_json", "ScalarDecl.from_json", "LockDecl.to_json",
        "LockDecl.from_json", "Program.iter_ops", "Program.to_json",
        "Program.dumps", "Program.from_json", "Program.loads",
        "Program.to_pytest_snippet")},
    **{f"testing/runner.py::{name}": _FUZZ for name in (
        "Divergence.describe", "run_config.<locals>.div",
        "record_flight", "fuzz.<locals>.still_fails")},
    **{f"testing/shrink.py::{name}": _FUZZ for name in (
        "_candidate", "_Budget.__init__", "_Budget.ok", "_sweep_phases",
        "_sweep_ops", "_sweep_statics", "shrink")},
    # -- the event core ------------------------------------------------
    "sim/process.py::Process._throw":
        "failure delivery: throws a failed event's exception, or a "
        "refused delay, into the waiting generator",
    "sim/resource.py::Resource.in_use":
        "a resource's holders; SharedLock.locked reads it",
    "sim/resource.py::Resource.queue_length":
        "a resource's waiters; SharedLock's repr reads it",
    # -- the UPC kernel API ---------------------------------------------
    "runtime/layout.py::BlockCyclicLayout._check":
        "the bounds check of thread_of and local_index",
    "runtime/layout.py::BlockCyclicLayout.thread_of": _UPC,
    "runtime/layout.py::BlockCyclicLayout.local_index": _UPC,
    "runtime/layout.py::BlockCyclicLayout.local_offset_bytes": _UPC,
    "runtime/pointer.py::PointerToShared.threadof": _UPC,
    "runtime/pointer.py::PointerToShared.phaseof": _UPC,
    "runtime/pointer.py::PointerToShared.local_offset_bytes": _UPC,
    "runtime/pointer.py::PointerToShared.__sub__": _UPC,
    "runtime/shared_array.py::SharedArray.owner_thread": _UPC,
    "runtime/shared_matrix.py::SharedMatrix.rc": _UPC,
    "runtime/shared_matrix.py::SharedMatrix.owner_of": _UPC,
    "runtime/shared_scalar.py::SharedScalar.read":
        "the data-plane read of the one-element array protocol",
    "runtime/shared_lock.py::SharedLock.locked": _UPC,
    "runtime/svd.py::SVDReplica.control_block":
        "an object's control block in the shared variable directory "
        "(section 3.2), which tests/runtime/test_svd.py checks",
    "runtime/thread.py::UPCThread.get_nb":
        "split-phase GET of the kernel API (docs/PERFORMANCE.md)",
    "runtime/thread.py::UPCThread.wait_all":
        "the split-phase sync of the kernel API: waits on get_nb's "
        "handles",
    "runtime/thread.py::UPCThread.forall":
        "upc_forall of the kernel API (README, DESIGN.md)",
    # -- documented analysis and model queries --------------------------
    "obs/states.py::StateRecord.duration":
        "read by find_outliers and render_profile (below)",
    "obs/states.py::find_outliers":
        "the section 4.6 outlier detector of docs/OBSERVABILITY.md; "
        "ROADMAP 8(b)'s tail report is to call it",
    "obs/states.py::render_profile":
        "the time-by-state table of docs/OBSERVABILITY.md; ROADMAP "
        "8(b)'s tail report is to call it",
    "util/quantiles.py::LatencyDigest.total":
        "read by render_profile (above)",
    "util/quantiles.py::LatencyDigest.p95":
        "the digest's middle percentile, beside p50 and p99",
    "util/stats.py::ConfidenceInterval.low": "an interval's bound",
    "util/stats.py::ConfidenceInterval.high": "an interval's bound",
    "util/stats.py::ConfidenceInterval.__str__":
        "how an interval prints, with n=0 and n=1 marked",
    "experiments/figures.py::FigureResult.series":
        "one column of a figure's rows: what tests/test_calibration.py's "
        "claims read, and ROADMAP 5 moves onto the table",
    "network/params.py::TransportParams.copy_time":
        "closed form of the memcpy cost the transport inlines; the "
        "wire-model tests referee against it",
    "network/params.py::TransportParams.fragments":
        "closed form of the eager fragment count the transport inlines; "
        "the wire-model tests referee against it",
    "network/topology.py::Topology.hops":
        "the bounds-checked hop count; the wire reads unchecked _hops",
    "network/topology.py::Topology._check": "the check of hops (above)",
    "memory/address_space.py::AddressSpace.owns":
        "whether an address is in a node's heap range",
    "obs/events.py::TraceEvent.key": "what __eq__ (below) compares",
    "obs/events.py::TraceEvent.__eq__":
        "events compare by value, so a recorder log can be compared "
        "with a rerun's",
    "obs/events.py::TraceEvent.__hash__":
        "identity hashing beside value equality (attrs is a dict)",
    # -- __repr__ -------------------------------------------------------
    **{f"{where}::{cls}.__repr__": _REPR for where, cls in (
        ("core/address_cache.py", "RemoteAddressCache"),
        ("core/pinned_table.py", "PinnedAddressTable"),
        ("faults/health.py", "WindowStats"),
        ("faults/injector.py", "Fate"),
        ("faults/injector.py", "FaultInjector"),
        ("faults/policy.py", "LinkMode"),
        ("faults/policy.py", "PolicyEngine"),
        ("faults/reliability.py", "DedupLedger"),
        ("memory/address_space.py", "AddressSpace"),
        ("network/cluster.py", "Cluster"),
        ("network/node.py", "Node"),
        ("network/topology.py", "Topology"),
        ("obs/events.py", "TraceEvent"),
        ("obs/events.py", "EventLog"),
        ("runtime/metrics.py", "RunResult"),
        ("runtime/pointer.py", "PointerToShared"),
        ("runtime/runtime.py", "Runtime"),
        ("runtime/shared_array.py", "SharedArray"),
        ("runtime/shared_lock.py", "SharedLock"),
        ("runtime/shared_matrix.py", "SharedMatrix"),
        ("runtime/shared_scalar.py", "SharedScalar"),
        ("runtime/svd.py", "SVDReplica"),
        ("runtime/thread.py", "UPCThread"),
        ("service/kvstore.py", "KVStore"),
        ("sim/event.py", "Event"),
        ("sim/resource.py", "Resource"),
        ("sim/shard.py", "ShardedSimulator"),
        ("sim/simulator.py", "Simulator"),
        ("util/rng.py", "StreamFamily"))},
}


def functions(root: Path = REPRO):
    """Every ``def`` under ``root``: ``(file, qualname, name, first
    line, last line, enclosing function's qualname or None)``; the first
    line is the first decorator's, as in ``co_firstlineno``."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out.append((rel, qual, child.name, first,
                                child.end_lineno, owner))
                    walk(child, qual + ".<locals>.", qual)
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", owner)
                else:
                    walk(child, prefix, owner)

        walk(tree, "", None)
    return out


# -- the tracer ------------------------------------------------------------

def tracer():
    """A call-only ``sys.settrace`` hook (no line or opcode events) and
    the set it fills with the code object of every frame entered."""
    codes = set()

    def on_call(frame, event, arg):
        codes.add(frame.f_code)

    return on_call, codes


def _keys(codes):
    """``(file under src/repro, first line, name)`` of each code object
    of ``src/repro`` among ``codes``."""
    where, keys = {}, set()
    for code in codes:
        name = code.co_filename
        if name not in where:
            try:
                where[name] = Path(name).resolve().relative_to(
                    REPRO).as_posix()
            except ValueError:
                where[name] = None
        if where[name] is not None:
            keys.add((where[name], code.co_firstlineno, code.co_name))
    return keys


def _hook_children(out_dir: str) -> None:
    """Make every process ``multiprocessing`` starts trace itself and
    write its keys to ``out_dir`` when its target returns."""
    from multiprocessing.process import BaseProcess
    boot = BaseProcess._bootstrap

    def _bootstrap(self, *args, **kwargs):
        on_call, codes = tracer()
        sys.settrace(on_call)
        try:
            return boot(self, *args, **kwargs)
        finally:
            sys.settrace(None)
            path = os.path.join(out_dir, f"{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(sorted(_keys(codes)), fh)

    BaseProcess._bootstrap = _bootstrap


# -- the run list ----------------------------------------------------------

def _bench(workload):
    def run(tmp):
        from bench.child import measure
        measure({"workload": workload, "seed": 7, "quick": True,
                 "trace": True, "seconds": 1, "t_spawn": time.time()})
    return run


def _cli(command, fails=False):
    """Run ``python -m repro <command>`` in-process; its exit status
    must be nonzero if ``fails``, else zero."""
    def run(tmp):
        from repro.__main__ import main
        code = main(command.replace("{tmp}", tmp).split())
        if bool(code) != fails:
            raise SystemExit(f"exit status {code}")
    return run


def _trace_checks(tmp):
    """CI's checks of the two trace smokes' artifacts."""
    from repro.obs import validate_chrome
    from repro.obs.states import load_csv
    for doc in ("trace-out/pointer.trace.json",
                "shard-trace-out/field.trace.json"):
        with open(os.path.join(tmp, doc)) as fh:
            problems = validate_chrome(json.load(fh))
        if problems:
            raise SystemExit(f"{doc}: {problems}")
    if not load_csv(os.path.join(tmp, "trace-out/pointer.state.csv")):
        raise SystemExit("empty state CSV")


def _noop_spec(tmp):
    """A campaign spec file (``campaign --spec FILE``) of ``noop``
    cells: the cell kind that measures the runner itself."""
    with open(os.path.join(tmp, "noop.json"), "w") as fh:
        json.dump({"name": "noop", "workers": 0, "legs": [
            {"kind": "noop", "matrix": {"x": [1, 2]}}]}, fh)


def _example(name):
    def run(tmp):
        runpy.run_path(str(ROOT / "examples" / f"{name}.py"),
                       run_name="__main__")
    return run


def runs():
    """``(label, callable(tmp dir))`` in run order."""
    from repro.experiments import EXPERIMENTS
    out = [(f"bench {w}", _bench(w)) for w in
           ("pointer_get", "bulk_span", "kv_mix", "shard_traffic")]
    for step in (
            "fuzz --seed 0 --ops 200 --quick --trace-dir {tmp}/fuzz-traces",
            "fuzz --seed 0..2 --ops 150 --quick --kv "
            "--trace-dir {tmp}/kv-fuzz-traces",
            "fuzz --seed 0..4 --ops 200 --quick --faults "
            "--fault-profile chaos --trace-dir {tmp}/chaos-traces",
            "kvtraffic --requests 40000 --shards 2 --fault-profile flap "
            "--fault-seed 7 --repair-policy disable_and_repair "
            "--slo-target-us 30",
            "trace pointer --quick --format chrome --format csv "
            "--out {tmp}/trace-out",
            "trace field --shards 2 --format chrome "
            "--out {tmp}/shard-trace-out",
            _trace_checks,
            "kvtraffic --requests 5000 --shards 2 --slo-target-us 30 "
            "--slo-window-us 500 --trace-dir {tmp}/kvtraffic-out",
            "report {tmp}/kvtraffic-out",
            # CI's partial campaign (it must exit nonzero) and its
            # resume on the spec's own workers.
            ("campaign --spec smoke --run-dir {tmp}/campaign-smoke "
             "--max-cells 4", True),
            "campaign --spec smoke --run-dir {tmp}/campaign-smoke",
            # The nightly job: the smoke campaign, a resume with nothing
            # left to execute, and the paper's figure tables.
            "campaign --spec smoke --run-dir {tmp}/nightly-campaign "
            "--workers 2",
            "campaign --spec smoke --run-dir {tmp}/nightly-campaign",
            "campaign --spec paper --run-dir {tmp}/nightly-paper "
            "--workers 2",
            # The same campaign in-process.
            "campaign --spec smoke --workers 0 --run-dir {tmp}/camp0",
            # The documented CLI surfaces CI does not smoke.
            "run pointer --quick --fault-profile drop --fault-seed 3",
            "run pointer --fault-profile stall --fault-seed 1",
            "run pointer --quick --fault-profile pin",
            "fuzz --seed 0 --ops 100 --matrix gm-base,lapi-base",
            "run field --shards 2 --quick",
            "trace pointer --quick --breakdown --out {tmp}/breakdown",
            *(f"kvtraffic --requests 5000 --shards 1 --fault-profile "
              f"{shape} --fault-seed 7 --repair-policy {policy} "
              f"--slo-target-us 30 --trace-dir {{tmp}}/{shape}"
              for shape, policy in (("burst", "path_failover"),
                                    ("degrade", "retransmit_tuning"),
                                    ("gray", "disable_and_repair"))),
            "report {tmp}/gray",
            "report {tmp}/campaign-smoke",
            "campaign --list-specs",
            "campaign --spec paper --list-cells",
            "campaign --spec service --list-cells",
            _noop_spec,
            "campaign --spec {tmp}/noop.json --workers 0 "
            "--run-dir {tmp}/noop"):
        if callable(step):
            out.append((step.__name__.strip("_"), step))
            continue
        command, fails = step if isinstance(step, tuple) else (step, False)
        out.append((command.replace("{tmp}/", ""), _cli(command, fails)))
    out += [(f"{name} --quick", _cli(f"{name} --quick"))
            for name in EXPERIMENTS]
    out += [(f"example {name}", _example(name)) for name in
            ("quickstart", "heat_stencil", "tiled_matmul",
             "pipelined_reduction")]
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]).parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        children = os.path.join(tmp, "children")
        os.mkdir(children)
        _hook_children(children)
        # On before the first import of repro: what runs at import time
        # is reached too.
        on_call, codes = tracer()
        sys.settrace(on_call)
        try:
            for label, fn in runs():
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    fn(tmp)
                print(f"  ran {label} ({time.perf_counter() - t0:.1f} s)",
                      file=sys.stderr)
        finally:
            sys.settrace(None)
        reached = _keys(codes)
        for name in os.listdir(children):
            with open(os.path.join(children, name)) as fh:
                reached |= {tuple(k) for k in json.load(fh)}

    defs = functions()
    missing = {(rel, first, name) for rel, _q, name, first, _e, _o in defs}
    missing -= reached
    unreached_quals = {(rel, qual) for rel, qual, name, first, _e, _o
                       in defs if (rel, first, name) in missing}
    report, total, undeclared = {}, 0, 0
    for rel, qual, name, first, last, owner in defs:
        if (rel, qual) not in unreached_quals or (
                owner is not None and (rel, owner) in unreached_quals):
            continue
        lines = last - first + 1
        total += lines
        reason = DECLARED.get(f"{rel}::{qual}")
        undeclared += reason is None
        report.setdefault(rel, []).append(
            (first, qual, lines, reason or "NOT DECLARED"))
    for rel in sorted(report):
        rows = report[rel]
        print(f"{rel}: {sum(r[2] for r in rows)} lines")
        for first, qual, lines, reason in rows:
            print(f"  {first:5d} {qual} ({lines} lines): {reason}")
    stale = sorted(key for key in DECLARED
                   if tuple(key.split("::")) not in unreached_quals)
    for key in stale:
        print(f"declared but reached: {key}")
    nfunc = sum(len(rows) for rows in report.values())
    print(f"unreached: {nfunc} functions, {total} lines "
          f"({undeclared} not declared) of {len(defs)} functions")
    return 1 if undeclared or stale else 0


if __name__ == "__main__":
    sys.exit(main())
