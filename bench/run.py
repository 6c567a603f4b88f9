#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--aa] [--out DIR]

Each workload runs in its own fresh child process, one at a time (see
``bench/child.py`` for the protocol, ``bench/workloads.py`` for the
load, ``bench/README.md`` for what the numbers mean).  Without
``--trace`` a run reports both metric sets; ``--trace 0`` reports the
end-to-end set only, ``--trace 1`` the per-layer set only — the form
the benchmark driver uses.  Every run ends by printing one JSON object
``{"correct", "attempted", "failed", "metrics"}`` as its last line.

Exit status is non-zero when an oracle, a cross-repetition identity, a
traced-vs-untraced or an mp-vs-inproc identity check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench/ modules are imported as bench.<name>, never as top-level names.
sys.path[0:1] = [ROOT]

from bench.child import IdentityError, require_identical  # noqa: E402
from bench.metrics import BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402

WORKLOAD_NAMES = ("pointer_get", "bulk_span", "kv_mix", "shard_traffic")
#: Fresh measuring processes per run (``--quick``: 2).  Each pays the
#: set-up and holds its share of the timed repetitions.
PROCESSES = 3
QUICK_PROCESSES = 2
#: The driver allows a run 180 s; leave room to kill and report.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# ---------------------------------------------------------------------
# environment record and noise guard
# ---------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    # Only a checkout that is itself a repository: never let git climb
    # into a parent directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """Taken once, before any child runs, so our own load is not in
    the load average."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc, "cpu_model": _cpu_model(),
        "platform": platform.platform(), "git_sha": _git_sha(),
        "loadavg_1min_at_start": load1,
        "noisy": load1 > 0.5 * nproc or nproc < 2,
    }


# ---------------------------------------------------------------------
# children
# ---------------------------------------------------------------------

def _spawn(job: dict) -> dict:
    """Run one child to completion; it and anything it started are
    gone when this returns."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    job = dict(job, t_spawn=time.time())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "bench", "child.py"),
         json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # The child's session holds its shard workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        raise BenchError(f"{job['workload']}: child exceeded "
                         f"{CHILD_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']}: child exited with status "
                         f"{proc.returncode} (its traceback is above)")
    return json.loads(stdout.strip().splitlines()[-1])


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """One run: PROCESSES fresh children in turn, medians across them.
    The last child also does the companion and traced repetitions."""
    nproc = QUICK_PROCESSES if quick else PROCESSES
    job = {"workload": name, "seed": seed, "seconds": seconds / nproc,
           "quick": quick, "trace": False}
    kids = [_spawn(dict(job, trace=trace and i == nproc - 1))
            for i in range(nproc)]
    exact = kids[0]["exact"]
    for i, kid in enumerate(kids[1:], start=2):
        try:
            require_identical(f"{name}: process {i} vs 1", exact,
                              kid["exact"])
        except IdentityError as exc:
            raise BenchError(str(exc)) from None

    walls = [s for kid in kids for s in kid["rep_wall_s"]]
    rep_s = statistics.median(walls)
    attempted = sum(kid["attempted"] for kid in kids)
    failed = sum(kid["failed"] for kid in kids)
    m = {
        "setup_s": statistics.median(kid["setup_s"] for kid in kids),
        "ops_per_host_s": exact["ops"] / rep_s,
        "host_peak_rss_mb": statistics.median(kid["peak_rss_mb"]
                                              for kid in kids),
        "sim_elapsed_us": exact["sim_elapsed_us"],
        "sim_op_p50_us": exact["sim_op_p50_us"],
        "sim_op_p99_us": exact["sim_op_p99_us"],
    }
    last = kids[-1]
    if trace:
        m.update({k: exact[k] for k in exact if k in BY_NAME})
        m.update(last["traced_metrics"])
        m.update({
            "sim.core.events_per_host_s": exact["sim.core.events"]
            / rep_s,
            "sim.shard.busy_share": statistics.median(
                b for kid in kids for b in kid["busy_share"]),
            "bench.fail_share": failed / attempted,
            "host.import_s": statistics.median(kid["import_s"]
                                               for kid in kids),
            "host.cpu_s": statistics.median(
                c for kid in kids for c in kid["rep_cpu_s"]),
            "host.rep_iqr_s": _iqr(walls),
            "host.gen_lateness_us": 0.0,
        })
    return {
        "workload": name, "seed": seed,
        "mode": "quick" if quick else "full",
        "processes": nproc, "repetitions": len(walls),
        "rep_wall_s": walls,
        "setup_samples_s": [kid["setup_s"] for kid in kids],
        "nsamples": last["nsamples"], "reference": last["reference"],
        "python": last["python"], "numpy": last["numpy"],
        "attempted": attempted, "failed": failed, "metrics": m,
        "trace": last.get("trace"),
    }


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(result: dict, shown, env: dict, out_dir: str) -> dict:
    """Print every shown metric by name and unit, write the artifacts,
    and print the driver's one-line JSON object last.  Returns the
    verdict and the shown values, for ``--aa``."""
    name, m = result["workload"], result["metrics"]
    print(f"== {name}  seed={result['seed']}  mode={result['mode']}  "
          f"repetitions={result['repetitions']} in "
          f"{result['processes']} processes  "
          f"latency samples={result['nsamples']}")
    if env["noisy"]:
        print(f"   NOISY: load average {env['loadavg_1min_at_start']:.2f}"
              f" on {env['nproc']} CPU(s) — host numbers are suspect")
    for metric in shown:
        note = ""
        if metric.name == "core.cache_gain_pct":
            note = f"   [{result['reference']}]"
        print(f"   {metric.name:<34} {_fmt(m[metric.name]):>14} "
              f"{metric.unit:<6} {metric.clock:<7} "
              f"{metric.better}-is-better{note}")
    correct = result["failed"] == 0
    print(f"   oracle: {result['failed']} failed of "
          f"{result['attempted']} attempted -> "
          f"{'correct' if correct else 'WRONG'}")

    os.makedirs(out_dir, exist_ok=True)
    trace = result.pop("trace")
    if trace is not None:
        _write_json(os.path.join(out_dir, f"{name}.trace.json"), trace)
    _write_json(os.path.join(out_dir, f"{name}.json"),
                dict(result, env=env))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {x.name: {"value": m[x.name], "unit": x.unit}
                    for x in shown}}))
    return {"correct": correct,
            "values": {x.name: m[x.name] for x in shown}}


def _write_json(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------
# A/A: the same commit twice
# ---------------------------------------------------------------------

def aa_compare(first: dict, second: dict) -> list:
    """Rows for every metric of one workload measured twice; exact
    metrics must be identical, bounded host metrics within bound."""
    rows = []
    for name in first:
        metric, a, b = BY_NAME[name], first[name], second[name]
        if metric.exact:
            ok = a == b
        elif metric.bound is None:
            ok = True                          # host layer metric: report
        else:
            ok = abs(b - a) <= metric.bound * abs(a)
        rows.append({"metric": name, "clock": metric.clock,
                     "first": a, "second": b, "bound": metric.bound,
                     "ok": ok})
    return rows


# ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md).")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload (default: all four, in turn)")
    ap.add_argument("--seed", type=int, default=7,
                    help="input seed (default 7; 11 is held out for "
                         "later claims)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="timed seconds per run (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: per-layer "
                         "metrics only (default: both)")
    ap.add_argument("--quick", action="store_true",
                    help="1/10 sizes, 2 repetitions; same metric names, "
                         "never comparable with a full run")
    ap.add_argument("--aa", action="store_true",
                    help="run the set twice and compare (writes AA.json)")
    ap.add_argument("--out", default=os.path.join(ROOT, "bench", "out"),
                    help="artifact directory (default bench/out)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to "
              "measure", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    shown = {None: END_TO_END + PER_LAYER, 0: END_TO_END,
             1: PER_LAYER}[args.trace]
    env = environment()
    print(f"# {env['cpu_model']} x{env['nproc']}, "
          f"python {platform.python_version()}, git {env['git_sha']}, "
          f"load {env['loadavg_1min_at_start']:.2f}"
          f"{'  (NOISY)' if env['noisy'] else ''}")

    def one_set() -> dict:
        return {name: report(
            run_workload(name, args.seed, args.seconds,
                         trace=args.trace != 0, quick=args.quick),
            shown, env, args.out) for name in names}

    try:
        first = one_set()
        ok = all(row["correct"] for row in first.values())
        if args.aa:
            second = one_set()
            ok = ok and all(row["correct"] for row in second.values())
            doc = {"env": env, "seed": args.seed,
                   "mode": "quick" if args.quick else "full",
                   "workloads": {}}
            for name in names:
                rows = aa_compare(first[name]["values"],
                                  second[name]["values"])
                doc["workloads"][name] = rows
                for row in rows:
                    if not row["ok"]:
                        ok = False
                        print(f"A/A MISMATCH {name} {row['metric']}: "
                              f"{row['first']!r} vs {row['second']!r}")
            doc["agree"] = ok
            _write_json(os.path.join(args.out, "AA.json"), doc)
            print(f"A/A: the two sets "
                  f"{'agree' if ok else 'DISAGREE'} "
                  f"({os.path.join(args.out, 'AA.json')})")
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
