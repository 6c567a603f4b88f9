"""ROADMAP needle 2 as a gate: ``src/repro`` may shrink, not grow.

The ceiling is the physical line count (``wc -l``) the tree had when
the last simplification PR landed.  A PR that deletes code lowers it;
raising it is a deliberate, reviewed edit of this file — say in the PR
what the new lines buy.
"""

import ast
import inspect
import os

import repro.sim
import repro.sim.event
from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig, UPCThread
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
#: Then a flat GET, -7: `_remote_get`, `_seed_cache`, `rt_phys` and
#: `_make_addr_handler` folded into `OpEngine.get` (`runtime/ops.py`
#: -29), `_eager_get` into `default_get`'s attempt loop
#: (`network/transport.py` -5), `th.get` and five more `th.*`
#: wrappers return the generator they wrapped (`runtime/thread.py`
#: -5); the pin-down cache unpins only what it pinned and `register`
#: probes the region map first (`memory/` +21, with
#: `_regions_covering` doubling as `is_pinned`;
#: `core/pinned_table.py` +11): 21 367 -> 21 360.
#: Then one account of the wire, -196: the transport's
#: `TransportCounters`, its `MessageLog` capture (`network/message.py`,
#: -99, the whole file) and the `AMReply`/`PutTicket` wrappers went
#: (`network/transport.py` -92, `network/__init__.py` -8); callers
#: take the bare payload or applied event (`runtime/ops.py` -1,
#: `service/kvstore.py` -5); the fence and the end of `Runtime.run`
#: raise a put that failed (`runtime/thread.py` +3,
#: `runtime/runtime.py` +6): 21 360 -> 21 164.
#: Then one arrival path, -28: the inbound hop, the eager/one-way
#: target block (`_run_handler`) and the duplicate spawn
#: (`_spawn_duplicate` and its `_again` closure) are one method,
#: `Transport._arrive`, and the lazily built per-destination credit
#: map (`_credits`, `_credit_pool`) is `Node.credits`
#: (`network/transport.py` -32, `network/node.py` +4): 21 164 -> 21 136.
#: Then one wait per bulk drive, -1: `AnyOf` and the `_Condition` base
#: went (`sim/event.py` -26, `sim/__init__.py` -1), `bulk_get` went
#: (the engine calls `OpEngine.get` with its `bulk=` tuple and copies
#: each segment into the caller's buffer itself; `runtime/ops.py` -17),
#: and `_message_done` became the `_Join` the driver parks on
#: (`runtime/bulk.py` +43): 21 136 -> 21 135.
#: Then one account of latency, -110: the Welford `RunningStats`
#: (`util/stats.py` -68, `util/__init__.py` -2), the duplicate
#: remote-GET digest and the `record_get`/`record_put` dispatch
#: (`runtime/metrics.py` -23, `runtime/runtime.py` -1), the private
#: percentile rules (`obs/report.py` -15, `obs/breakdown.py` -12,
#: `obs/states.py` -3), the SLO monitor's run digest and second
#: bin-edge rule (`obs/slo.py` -2) and the traffic harness's copy of
#: `hist_quantile` (`workloads/kv_traffic.py` -8); `util/quantiles.py`
#: +24 for the one `quantile` rule and the digest's mean, total and
#: max: 21 135 -> 21 025.
#: Then one wire for the shard programs, -32: the Field mix, the corpus
#: skeleton and the KV traffic model send through `ShardWire` and
#: start through `run_sharded` (`workloads/sharded.py` +12: the three
#: latency methods, two transmit closures, three partition blocks and
#: three `ShardedSimulator` setups went; `workloads/kv_traffic.py` -32:
#: its latency table, second `_KV_SCAN_US` and five retransmit
#: constants went, the last for one `ReliabilityConfig`, and
#: `TrafficParams` checks its fields); `min_lookahead`, which nothing
#: called, went (`network/partition.py` -11, `network/__init__.py`
#: -2); a shard packs its events with `obs.shardlog.pack_events`
#: (`sim/shard.py` -1); `kvtraffic` reports a bad field as a usage
#: error (`__main__.py` +2): 21 025 -> 20 993.
SRC_LINES_CEILING = 20993


def _sources(root=SRC):
    for dirpath, _dirs, files in os.walk(root):
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


def test_the_bulk_driver_parks_on_one_join():
    # A pipelined drive waits on its one _Join, refill after refill; the
    # condition event built per refill and the gauge callback beside it
    # are gone from the product.
    assert "AnyOf" not in repro.sim.__all__
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            body = fh.read()
        for name in ("AnyOf", "_message_done", "_Condition"):
            assert name not in body, (name, path)


def _get_depths():
    """Deepest ``yield from`` chain below the kernel seen while a remote
    scalar GET is suspended, per phase: the first GET of an array misses
    the address cache (eager AM), the second hits it (RDMA)."""
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1, seed=1))
    kernels, phase, depth = {}, [None], {}

    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=8, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            for phase[0] in ("miss", "hit"):
                yield from th.get(arr, 8)
            phase[0] = "done"
        yield from th.barrier()

    def program(th):
        kernels[th.id] = gen = kernel(th)
        return gen

    def probe():
        while phase[0] != "done":
            if phase[0] is not None:
                n, gen = 0, kernels[0].gi_yieldfrom
                while gen is not None:
                    n, gen = n + 1, getattr(gen, "gi_yieldfrom", None)
                depth[phase[0]] = max(depth.get(phase[0], 0), n)
            yield 0.05

    rt.spawn(program)
    rt.sim.process(probe(), name="depth-probe")
    rt.run()
    return depth


def test_a_remote_get_resumes_through_a_flat_chain():
    # A suspended GET re-enters every frame of its chain on each event:
    # the op engine's GET is one frame (RDMA hit: get -> rdma_get ->
    # _inject; eager miss: get -> default_get -> _arrive -> _inject or
    # the progress engine's service).
    assert not inspect.isgeneratorfunction(UPCThread.get)
    depth = _get_depths()
    assert 0 < depth["hit"] <= 3, depth
    assert 0 < depth["miss"] <= 4, depth


def test_the_wire_has_one_account():
    # What crossed the fabric is read off the flight recorder and the
    # runtime metrics; the transport keeps no second account and hands
    # back the bare reply payload or applied event, not a wrapper.
    import repro.network.transport as transport
    for name in ("TransportCounters", "AMReply", "PutTicket"):
        assert not hasattr(transport, name), name
    assert not hasattr(transport.Transport, "enable_log")
    assert not os.path.exists(os.path.join(SRC, "network", "message.py"))
    body = inspect.getsource(transport)
    assert ".counters" not in body and "self._record(" not in body


def test_every_am_message_lands_through_one_arrival_path():
    # The target side of the AM path (progress engine, handler CPU,
    # dedup ledger) is written in _arrive and in the rendezvous round
    # trip's own target block, nowhere else; receive credits belong to
    # the node they guard, beside its NIC and handler CPU.
    from repro.network import Cluster
    from repro.network.transport import Transport
    for name in ("_run_handler", "_spawn_duplicate", "_credit_pool"):
        assert not hasattr(Transport, name), name
    assert "_credits" not in inspect.getsource(Transport)
    for needle in ("handler_cpu", "progress.service", "self.ledger."):
        users = {name for name, fn in vars(Transport).items()
                 if inspect.isfunction(fn) and needle in inspect.getsource(fn)}
        assert users == {"_arrive", "_rts_round"}, (needle, users)
    node = Cluster(Simulator(), GM_MARENOSTRUM, 2).node(1)
    assert node.credits.capacity == GM_MARENOSTRUM.transport.eager_credits


def test_latency_has_one_account():
    # A latency sample lives in one LatencyDigest and every percentile
    # is util/quantiles.py's ceil-rank rule: no second accumulator, no
    # duplicate remote-GET digest, no private percentile helper.
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            body = fh.read()
        for needle in ("RunningStats", "get_remote_digest",
                       "def _percentile", "def record_get"):
            assert needle not in body, (needle, path)


def test_shard_programs_share_one_wire():
    # The Field mix, the corpus skeleton and the KV traffic model send
    # through ShardWire and start through run_sharded: one latency
    # model (topology + serialization + folded service cost), one
    # partition and one ShardedSimulator setup under workloads/.
    latency_defs, calls = [], {}
    for path in _sources(os.path.join(SRC, "workloads")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.FunctionDef)
                        and node.name in ("latency", "_latency")):
                    latency_defs.append(owner)
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", ""))
                    calls.setdefault(name, []).append(owner)
    assert latency_defs == ["ShardWire"]
    assert calls["ShardedSimulator"] == ["run_sharded"]
    for name in ("make_topology", "partition_nodes", "lookahead_matrix"):
        assert set(calls[name]) <= {"ShardWire", "run_sharded"}, name


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
