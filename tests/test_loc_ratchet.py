"""ROADMAP needle 2 as a gate: ``src/repro`` may shrink, not grow.

The ceiling is the physical line count (``wc -l``) the tree had when
the last simplification PR landed.  A PR that deletes code lowers it;
raising it is a deliberate, reviewed edit of this file — say in the PR
what the new lines buy.
"""

import inspect
import os

import repro.sim
import repro.sim.event
from repro.sim import Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: PR 24 (one event core: the `pooled` flag and the `shards=` door of
#: `Simulator`, the tuple-heap loops of `run`/`run_before`, -73 — the
#: reference core is `tests/sim/reference_core.py`, counted under
#: tests, not here; the administrative link-state door, the two empty
#: per-fabric `Transport` subclasses and the cluster factory, -65):
#: 21 607 -> 21 469.
#: Then raised, +31, for a timed wait that is a bare ``yield
#: delay`` (5 338 -> 3 982 interpreter opcodes per GET): `sim/process.py`
#: +17 (the `_Wake` carrier; `_step`'s copy of the target dispatch
#: went), `network/transport.py` +19 (`_wire` returns the latency, so
#: its 12 call sites wait only when it is positive), `sim/simulator.py`
#: -3 (the wake resumed inside `run_before`; `sleep` gone), the other
#: files -2.
#: Then one wait carrier, -133: a grant and a poll tick resume the
#: waiter's ``_Wake`` token, so `_PooledEvent`, `Simulator.oneshot`,
#: both free lists, the `_cb` slot, the pooled dispatch branch, the
#: cached `_resume_cb` and the unused `Queue` went (`sim/simulator.py`
#: -68, `sim/event.py` -39, `sim/resource.py` -39, `sim/process.py`
#: -2); a shard delivery is a two-slot `_Delivery` instead of an event
#: and its callback (`sim/shard.py` +14, `workloads/sharded.py` -2);
#: `network/progress.py` +3: 21 500 -> 21 367.
SRC_LINES_CEILING = 21367


def _sources():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_src_physical_lines_do_not_grow():
    total = 0
    for path in _sources():
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    assert total <= SRC_LINES_CEILING, (
        f"src/repro grew to {total} physical lines "
        f"(ceiling {SRC_LINES_CEILING})")


def test_the_event_core_has_no_options():
    # One core in the product; the reference core the tests compare it
    # against is a test-side subclass, not a constructor argument.
    assert not inspect.signature(Simulator).parameters


def test_the_event_core_has_one_wait_carrier():
    # Whatever resumes exactly one process — a timed wait, a grant, a
    # poll tick — is the process's _Wake token; there is no recycled
    # event, no free list and no mailbox beside it.
    assert not hasattr(repro.sim, "Queue")
    assert "Queue" not in repro.sim.__all__
    for name in ("oneshot", "_event_pool", "_entry_pool"):
        assert not hasattr(Simulator, name), name
    assert not hasattr(repro.sim.event, "_PooledEvent")


def test_src_keeps_the_file_count_the_frozen_bench_asserts():
    # bench/tests/test_bench_layers.py (frozen, outside tier-1) fails
    # below 101 source files; catch it here first.
    assert sum(1 for _ in _sources()) > 100


def test_there_is_no_second_door_to_run_an_experiment():
    # A sweep is a row of repro.experiments.EXPERIMENTS or a campaign
    # traffic cell; it is timed by bench/.  No script directory, no
    # committed snapshot for a tolerance gate to compare against.
    assert not os.path.exists(os.path.join(ROOT, "benchmarks"))
    assert not [name for name in os.listdir(ROOT)
                if name.startswith("BENCH_") and name.endswith(".json")]
