"""ROADMAP needle 2 as a gate: ``src/repro`` may shrink, not grow.

The ceiling is the physical line count (``wc -l``) the tree had when
the last simplification PR landed.  A PR that deletes code lowers it;
raising it is a deliberate, reviewed edit of this file — say in the PR
what the new lines buy.
"""

import ast
import inspect
import os
import subprocess
import sys

import repro.sim
import repro.sim.event
from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig, UPCThread
from repro.sim import Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: Each step of the ceiling, and what went or came per file, is in
#: docs/TRAJECTORY.md ("The `src/repro` line ceiling").
SRC_LINES_CEILING = 19387


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
    # against is a test-side subclass, not a constructor argument.  A
    # run drains the queue: no time bound, no event budget, no single
    # step, and no process is killed.  The sharded core runs its shards
    # in this process, with no backend to choose and no worker process
    # to start.
    from repro.sim.shard import ShardedSimulator
    assert not inspect.signature(Simulator).parameters
    assert not {"mode", "mp_context"} & set(
        inspect.signature(ShardedSimulator).parameters)
    for package in ("sim", "network"):
        for path in _sources(os.path.join(SRC, package)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                names = ([alias.name for alias in node.names]
                         if isinstance(node, ast.Import)
                         else [node.module or ""]
                         if isinstance(node, ast.ImportFrom) else [])
                assert not [n for n in names
                            if n.split(".")[0] == "multiprocessing"], path
    assert not inspect.signature(Simulator.run).parameters.keys() - {"self"}
    assert not inspect.signature(Runtime.run).parameters.keys() - {"self"}
    for name in ("timeout", "run_process", "step"):
        assert not hasattr(Simulator, name), name
    assert not hasattr(repro.sim.Process, "kill")
    assert not {"Timeout", "ProcessKilled"} & set(repro.sim.__all__)


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


def _get_depths(read=lambda th, arr: th.get(arr, 8)):
    """Deepest ``yield from`` chain below the kernel seen while a remote
    read is suspended (a scalar GET unless ``read`` says otherwise),
    per phase: the first read of an array misses the address cache
    (eager AM), the second hits it (RDMA).  Also returns, per phase,
    the code names along the first chain seen."""
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1, seed=1))
    kernels, phase, depth, names = {}, [None], {}, {}

    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=8, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            for phase[0] in ("miss", "hit"):
                yield from read(th, arr)
            phase[0] = "done"
        yield from th.barrier()

    def program(th):
        kernels[th.id] = gen = kernel(th)
        return gen

    def probe():
        while phase[0] != "done":
            if phase[0] is not None:
                chain, gen = [], kernels[0].gi_yieldfrom
                while gen is not None:
                    chain.append(getattr(gen, "__name__", "?"))
                    gen = getattr(gen, "gi_yieldfrom", None)
                depth[phase[0]] = max(depth.get(phase[0], 0), len(chain))
                names.setdefault(phase[0], chain)
            yield 0.05

    rt.spawn(program)
    rt.sim.process(probe(), name="depth-probe")
    rt.run()
    return depth, names


def test_a_remote_get_resumes_through_a_flat_chain():
    # A suspended GET re-enters every frame of its chain on each event:
    # the op engine's GET is one frame (RDMA hit: get -> rdma_get ->
    # _inject; eager miss: get -> default_get -> _arrive -> _inject or
    # the progress engine's service).
    assert not inspect.isgeneratorfunction(UPCThread.get)
    depth, _ = _get_depths()
    assert 0 < depth["hit"] <= 3, depth
    assert 0 < depth["miss"] <= 4, depth


def test_a_one_message_memget_resumes_in_the_transfer_frame():
    # Every KV bucket read is a one-message memget: the bulk engine's
    # _transfer is the frame right below the kernel and the op engine's
    # GET the one below that, with no memget wrapper, no inline driver
    # and no message generator in between.
    from repro.runtime.bulk import BulkEngine
    assert not inspect.isgeneratorfunction(UPCThread.memget)
    assert not hasattr(BulkEngine, "_inline")
    depth, names = _get_depths(lambda th, arr: th.memget(arr, 8, 4))
    for phase in ("miss", "hit"):
        assert names[phase][:2] == ["_transfer", "get"], names
    assert 0 < depth["hit"] <= 4, depth


def test_a_whole_block_memget_plans_one_run_per_remote_owner():
    # A 256-block span over 32 threads, 4 per node, issued by thread 5:
    # each of the 28 remote owners holds 8 of its blocks back to back,
    # one wire message with no tuple per block; the 32 local blocks
    # stay bare segments (60 items, where the segment coalescer built
    # 224 segment tuples into 28 messages).
    import numpy as np
    from repro.runtime.bulk import _Run
    from repro.runtime.handle import ALL_PARTITION
    from repro.runtime.layout import BlockCyclicLayout
    from repro.runtime.shared_array import SharedArray
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=32,
                               threads_per_node=4))
    array = SharedArray(rt, rt.handles.fresh(ALL_PARTITION),
                        BlockCyclicLayout(512 * 512, 8, 512, 32),
                        np.dtype("u8"))
    items = rt.bulk._plan(rt.threads[5], array, [(64 * 512, 256 * 512)])
    runs = [it for it in items if it.__class__ is not tuple]
    assert len(items) == 60 and len(runs) == 28
    assert {it.__class__ for it in runs} == {_Run}
    assert {type(it.segments) for it in runs} == {range}
    assert sorted({it.node for it in runs}) == [0, 2, 3, 4, 5, 6, 7]
    assert {len(it.segments) for it in runs} == {8}


def test_a_pipelined_message_runs_the_op_engines_get():
    # A message of a multi-message plan is its own process, and that
    # process's generator is OpEngine.get's: no message generator in
    # between, resumed on every event of the message.
    from repro.runtime import bulk
    from repro.runtime.ops import OpEngine
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=4,
                               threads_per_node=1, seed=1))
    flights, chains = [], []

    class Spied(bulk._Flight):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            flights.append(self)

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memget(arr, 0, 256)
        yield from th.barrier()

    def probe():
        while not flights or any(not f._status for f in flights):
            for f in flights:
                if not f._status and f._gen.gi_frame is not None:
                    chain, gen = [], f._gen
                    while gen is not None:
                        chain.append(gen.gi_code)
                        gen = getattr(gen, "gi_yieldfrom", None)
                    chains.append(chain)
            yield 0.05

    bulk_flight, bulk._Flight = bulk._Flight, Spied
    try:
        rt.spawn(kernel)
        rt.sim.process(probe(), name="chain-probe")
        rt.run()
    finally:
        bulk._Flight = bulk_flight
    assert len(flights) == 3        # one run per remote node
    assert all(f._gen.gi_code is OpEngine.get.__code__ for f in flights)
    assert chains and all(c[0] is OpEngine.get.__code__ for c in chains)
    # A first touch misses the address cache: get -> default_get ->
    # _arrive -> _inject, as for a scalar GET (the wrapper made it 5).
    assert max(len(c) for c in chains) <= 4, chains


def _get_calls():
    """Python calls into ``src/repro`` made while one cached and one
    missed remote GET run (other threads' work in that window counted
    too), by ``sys.setprofile``.  Comprehensions are left out: CPython
    3.12 inlines them, so they are no frame there."""
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1, seed=1))
    src, inlined = SRC + os.sep, {"<listcomp>", "<dictcomp>", "<setcomp>"}
    phase, calls = [None], {}

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and phase[0] is not None
                and code.co_filename.startswith(src)
                and code.co_name not in inlined):
            calls[phase[0]] = calls.get(phase[0], 0) + 1

    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=8, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            for phase[0] in ("miss", "hit"):
                yield from th.get(arr, 8)
            phase[0] = None
        yield from th.barrier()

    rt.spawn(kernel)
    sys.setprofile(profile)
    try:
        rt.run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_remote_get_makes_few_python_calls():
    # Fixed values are attributes, handles hash in C, and a recorder or
    # fault plane that is off costs a test, not a call: a missed GET
    # made 140 calls and a cached one 48 before.  The first-touch pin is
    # six calls on the one pinned address table (16 over three
    # registries before, when a missed GET made 102).  Lower the pins
    # when a change cuts calls; raising one is a reviewed edit.
    calls = _get_calls()
    assert 0 < calls["hit"] <= 32, calls
    assert 0 < calls["miss"] <= 92, calls


def test_pin_state_has_one_account():
    # One registry per node: the runtime's pinned address table is the
    # node's, which the transport's pin-down cache registrations use,
    # and it keeps its state (regions, owners, cached ranges, one entry
    # per handle) but no statistics only tests would read.
    from repro.core import PinnedAddressTable
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=2,
                               threads_per_node=1))
    for node in rt.cluster.nodes:
        assert rt.pinned_table(node.id) is node.pins
        assert type(node.pins) is PinnedAddressTable
        assert not hasattr(node, "reg_cache")
    assert not os.path.exists(
        os.path.join(SRC, "memory", "registration_cache.py"))
    for name in ("pin_calls", "unpin_calls", "peak_pinned_bytes",
                 "pin_time_us", "unpin_time_us", "hits", "misses",
                 "evictions", "hit_rate", "entry_count_for",
                 "unpinnable_count"):
        assert not hasattr(PinnedAddressTable, name), name


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
                       "def _percentile", "def _median",
                       "def record_get"):
            assert needle not in body, (needle, path)


def test_resource_keeps_no_statistics():
    # Contention has one account, the flight recorder's queue phase: a
    # resource holds only what scheduling needs, a progress engine
    # counts services but keeps no wait sum, and the runtime renders
    # no second report beside metrics.summary().
    from repro.network import Cluster, LAPI_POWER5
    from repro.sim import Resource
    assert set(Resource.__slots__) == {
        "sim", "capacity", "name", "_users", "_waiters"}
    assert not hasattr(Resource, "utilization")
    assert not hasattr(Runtime, "report")
    for machine in (GM_MARENOSTRUM, LAPI_POWER5):
        engine = Cluster(Simulator(), machine, 1).node(0).progress
        assert not hasattr(engine, "wait_time"), type(engine)


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


def test_the_product_imports_no_test_machinery():
    # The shard-program referees (corpus skeleton, its fence, the
    # pooled Field reference) live in tests/sim/shard_referees.py; only
    # the fuzz package itself and the `fuzz` command reach repro.testing.
    allowed = {os.path.join(SRC, "__main__.py")}
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in ("ShardFence", "run_field_reference",
                                      "run_corpus_sharded", "_SkeletonCore")):
                raise AssertionError((node.name, path))
            if path.startswith(os.path.join(SRC, "testing", "")) \
                    or path in allowed:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names
                        if n == "repro.testing"
                        or n.startswith("repro.testing.")], (names, path)


def test_product_packages_load_no_test_machinery():
    # Importing what the CLI, the figures and the campaign runner use
    # must not drag in the fuzz generator, oracle, runner and shrinker.
    code = ("import sys, repro.workloads, repro.experiments, "
            "repro.campaign; print(sorted(m for m in sys.modules "
            "if m == 'repro.testing' or m.startswith('repro.testing.')))")
    path = [os.path.dirname(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


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
