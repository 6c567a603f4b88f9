"""The differential runner: one program, many configurations.

Replays a fuzz :class:`~repro.testing.program.Program` on the real
runtime under every :class:`ConfigPoint` of a config matrix — GM vs
LAPI vs TCP vs BG/L transports, polling vs interrupt progress, cache
on/off/capacity/eviction-policy, RDMA-PUT on/off, bulk engine
on/off/window/coalescing, piggyback modes — and checks three things
against the flat-memory oracle:

1. every *checked* op (reads, gathers, reduces, broadcasts, pointer
   walks) returned bit-identical values;
2. the final contents of every still-live shared object match;
3. runtime **invariants** hold at every fencing collective:

   * every address-cache entry refers to a *live* handle and stores
     exactly the base address the directory would hand out today
     (stale entries after a free are the paper's consistency hazard);
   * every pinned-table entry refers to a live handle, is actually
     pinned, and resolves to its recorded physical address;
   * a thread exiting a fence/barrier has no unapplied relaxed puts;
   * the virtual clock never runs backwards across barriers.

Because programs are race-free by construction, *any* disagreement is
a real runtime bug (or a generator/validator bug — either way worth a
report), never timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.address_cache import DEFAULT_CAPACITY, EvictionPolicy
from repro.core.piggyback import PiggybackConfig, PiggybackMode
from repro.network.params import MACHINES
from repro.runtime.pointer import PointerToShared
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.service.kvstore import kv_create as kv_create_collective
from repro.testing.oracle import (
    OpKey,
    OracleResult,
    canonical,
    run_oracle,
    values_equal,
)
from repro.testing.program import CHECKED_KINDS, Program, live_objects_at_end


# ---------------------------------------------------------------------------
# The configuration matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigPoint:
    """One named cell of the differential config matrix."""

    name: str
    machine: str = "gm"
    #: 4-thread programs on tpn=2 span two nodes (network traffic plus
    #: same-node shm accesses); tpn=1 makes every access remote.
    threads_per_node: int = 2
    cache_enabled: bool = True
    cache_capacity: int = DEFAULT_CAPACITY
    cache_policy: EvictionPolicy = EvictionPolicy.LRU
    #: None = the machine's native progress engine.
    progress: Optional[str] = None
    use_rdma_put: Optional[bool] = None
    bulk_enabled: bool = True
    bulk_max_inflight: int = 8
    bulk_max_coalesce_bytes: int = 64 * 1024
    piggyback: Optional[PiggybackMode] = None

    def runtime_config(self, nthreads: int, seed: int = 0) -> RuntimeConfig:
        machine = MACHINES[self.machine]
        if (self.progress is not None
                and machine.transport.progress != self.progress):
            machine = replace(machine, transport=machine.transport
                              .with_overrides(progress=self.progress))
        kw = dict(
            machine=machine,
            nthreads=nthreads,
            threads_per_node=self.threads_per_node,
            cache_enabled=self.cache_enabled,
            cache_capacity=self.cache_capacity,
            cache_policy=self.cache_policy,
            use_rdma_put=self.use_rdma_put,
            bulk_enabled=self.bulk_enabled,
            bulk_max_inflight=self.bulk_max_inflight,
            bulk_max_coalesce_bytes=self.bulk_max_coalesce_bytes,
            seed=seed,
        )
        if self.piggyback is not None:
            kw["piggyback"] = PiggybackConfig(mode=self.piggyback)
        return RuntimeConfig(**kw)


#: The smoke matrix: one representative per mechanism under test.
QUICK_MATRIX: Tuple[ConfigPoint, ...] = (
    ConfigPoint("gm-base"),
    ConfigPoint("gm-nocache", cache_enabled=False),
    ConfigPoint("gm-serial", bulk_enabled=False),
    ConfigPoint("gm-cap4-random", cache_capacity=4,
                cache_policy=EvictionPolicy.RANDOM),
    ConfigPoint("gm-tpn1", threads_per_node=1),
    ConfigPoint("lapi-base", machine="lapi"),
)

#: The full matrix the acceptance run sweeps.
FULL_MATRIX: Tuple[ConfigPoint, ...] = QUICK_MATRIX + (
    ConfigPoint("gm-cap4-fifo", cache_capacity=4,
                cache_policy=EvictionPolicy.FIFO),
    ConfigPoint("gm-win1", bulk_max_inflight=1,
                bulk_max_coalesce_bytes=0),
    ConfigPoint("gm-interrupt", progress="interrupt"),
    ConfigPoint("gm-rdmaput-off", use_rdma_put=False),
    ConfigPoint("gm-pb-explicit", piggyback=PiggybackMode.EXPLICIT),
    ConfigPoint("lapi-polling", machine="lapi", progress="polling"),
    ConfigPoint("lapi-rdmaput", machine="lapi", use_rdma_put=True),
    ConfigPoint("lapi-serial-tpn1", machine="lapi", threads_per_node=1,
                bulk_enabled=False),
    ConfigPoint("tcp", machine="tcp"),
    ConfigPoint("bgl", machine="bgl"),
)

MATRICES = {"quick": QUICK_MATRIX, "full": FULL_MATRIX}


def config_by_name(name: str) -> ConfigPoint:
    """Look one matrix cell up by name (reproducer snippets use this)."""
    for point in FULL_MATRIX:
        if point.name == name:
            return point
    raise KeyError(f"unknown config point {name!r}; choose from "
                   f"{[p.name for p in FULL_MATRIX]}")


# ---------------------------------------------------------------------------
# Divergence reports
# ---------------------------------------------------------------------------

@dataclass
class Divergence:
    """One oracle/runtime disagreement (or invariant violation)."""

    config: str
    kind: str                      # return | final | invariant | crash
    detail: str
    op_key: Optional[OpKey] = None
    expected: object = None
    actual: object = None
    program: Optional[Program] = None

    def describe(self) -> str:
        lines = [f"[{self.config}] {self.kind} divergence: {self.detail}"]
        if self.op_key is not None:
            pi, t, oi = self.op_key
            where = ("collective" if oi == -1
                     else f"op #{oi} of thread {t}")
            lines.append(f"  at phase {pi}, {where}")
        if self.expected is not None or self.actual is not None:
            lines.append(f"  oracle : {self.expected!r}")
            lines.append(f"  runtime: {self.actual!r}")
        if self.program is not None:
            lines.append(f"  program: {self.program.n_ops} ops, "
                         f"seed={self.program.seed}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------

def check_invariants(rt: Runtime, handle_map: Dict, where: str) -> List[str]:
    """Audit the runtime's internal tables against directory truth.

    ``handle_map`` maps SVD handle -> live shared object (maintained by
    the driver as the program allocates and frees).  Runs synchronously
    (no simulator yields), so the audit is atomic with respect to the
    cooperative threads.
    """
    problems: List[str] = []
    for node in rt.cluster.nodes:
        cache = rt.addr_cache(node.id)
        for (handle, target), base in cache.entries().items():
            obj = handle_map.get(handle)
            if obj is None or getattr(obj, "freed", False):
                problems.append(
                    f"{where}: node {node.id} address cache holds "
                    f"{handle} which is freed/unknown (stale entry "
                    "survived eager invalidation)")
                continue
            if handle not in rt.svd(node.id):
                problems.append(
                    f"{where}: node {node.id} caches {handle} but its "
                    "own SVD replica says it is dead")
                continue
            truth = rt.ops._target_base_addr(obj, rt.cluster.node(target))
            if truth is not None and base != truth:
                problems.append(
                    f"{where}: node {node.id} caches base {base:#x} "
                    f"for ({handle}, node {target}) but the directory "
                    f"says {truth:#x}")
        table = rt.pinned_table(node.id)
        for vaddr, end, owner in table.regions.values():
            if owner is None:
                continue    # the pin-down cache's, deregistered lazily
            obj = handle_map.get(owner)
            if obj is None or getattr(obj, "freed", False):
                problems.append(
                    f"{where}: node {node.id} region {vaddr:#x}+"
                    f"{end - vaddr} is still owned by {owner} after "
                    "free (pin leak)")
        for handle, (pinned, base) in table.handles.items():
            obj = handle_map.get(handle)
            if obj is None or getattr(obj, "freed", False):
                problems.append(
                    f"{where}: node {node.id} pinned table keeps an "
                    f"entry for {handle} after free")
            elif pinned and base != table.lookup_phys(
                    obj.node_base[node.id]):
                problems.append(
                    f"{where}: node {node.id} records base {base} for "
                    f"{handle}, which is no pinned region's address")
    return problems


# ---------------------------------------------------------------------------
# The driver kernel: executing a Program on the real runtime
# ---------------------------------------------------------------------------

class _Driver:
    """Shared state for one (program, config) replay."""

    def __init__(self, rt: Runtime, program: Program) -> None:
        self.rt = rt
        self.program = program
        self.objs: Dict[int, object] = {}
        self.locks: Dict[int, object] = {}
        #: SVD handle -> live shared object, for the invariant audit.
        self.handle_map: Dict[object, object] = {}
        self.returns: Dict[OpKey, object] = {}
        self.problems: List[str] = []
        self._last_barrier_now = -1.0
        # Static (pre-run) objects: scalars and locks.
        for s in program.scalars:
            sc = rt.alloc_scalar(s.owner_thread, dtype=s.dtype)
            self.objs[s.obj] = sc
            self.handle_map[sc.handle] = sc
        for l in program.locks:
            lck = rt.alloc_lock(l.owner_thread)
            self.locks[l.obj] = lck
            self.handle_map[lck.handle] = lck

    # -- post-fence bookkeeping -------------------------------------------

    def after_fencing(self, th, where: str) -> None:
        """Per-thread checks at every fencing collective."""
        pending = [ev for ev in th._outstanding_puts if not ev.processed]
        if pending:
            self.problems.append(
                f"{where}: thread {th.id} has {len(pending)} unapplied "
                "puts after its fence (fence did not drain)")
        if th.id == 0:
            now = self.rt.sim.now
            if now < self._last_barrier_now:
                self.problems.append(
                    f"{where}: virtual clock ran backwards "
                    f"({self._last_barrier_now} -> {now})")
            self._last_barrier_now = now
            self.problems.extend(
                check_invariants(self.rt, self.handle_map, where))

    # -- the per-thread kernel --------------------------------------------

    def kernel(self, th):
        t = th.id
        for pi, phase in enumerate(self.program.phases):
            if phase.is_collective:
                yield from self._collective(th, phase.collective, pi)
            else:
                for oi, op in enumerate(phase.per_thread[t]):
                    yield from self._thread_op(th, op, (pi, t, oi))

    def _collective(self, th, op, pi: int):
        t = th.id
        a = op.args
        if op.kind == "barrier":
            yield from th.barrier()
            self.after_fencing(th, f"barrier@phase{pi}")
        elif op.kind == "split_barrier":
            yield from th.barrier_notify()
            yield from th.compute(a["compute"][t])
            yield from th.barrier_wait()
            self.after_fencing(th, f"split_barrier@phase{pi}")
        elif op.kind == "alloc":
            arr = yield from th.all_alloc(a["nelems"],
                                          blocksize=a["blocksize"],
                                          dtype=a["dtype"])
            self.objs[op.obj] = arr
            self.handle_map[arr.handle] = arr
        elif op.kind == "alloc_matrix":
            mat = yield from th.all_alloc_matrix(
                a["rows"], a["cols"], a["tile_r"], a["tile_c"],
                dtype=a["dtype"])
            self.objs[op.obj] = mat
            self.handle_map[mat.handle] = mat
        elif op.kind == "free":
            arr = self.objs[op.obj]
            yield from th.all_free(arr)
            if t == 0:
                self.objs.pop(op.obj, None)
                self.handle_map.pop(arr.handle, None)
            self.after_fencing(th, f"free@phase{pi}")
        elif op.kind == "all_reduce":
            dt = np.dtype(a["dtype"])
            mine = dt.type(a["values"][t])
            fold = {"sum": None,
                    "max": lambda x, y: max(x, y),
                    "min": lambda x, y: min(x, y)}[a["op"]]
            v = yield from th.all_reduce(mine, op=fold)
            self.returns[(pi, t, -1)] = canonical(v)
        elif op.kind == "broadcast":
            v = yield from th.all_broadcast(
                a["value"] if t == 0 else None)
            self.returns[(pi, t, -1)] = canonical(v)
        elif op.kind == "kv_create":
            lock_id = a.get("lock", -1)
            locks = [self.locks[lock_id]] if lock_id != -1 else None
            store = yield from kv_create_collective(
                th, a["nbuckets"], a["slots"],
                access=a.get("access", "onesided"), locks=locks,
                blocksize=a.get("blocksize"))
            # Every thread builds an equivalent wrapper around the
            # one collectively-allocated backing array.
            self.objs[op.obj] = store
            self.handle_map[store.array.handle] = store.array
        elif op.kind == "kv_free":
            store = self.objs[op.obj]
            yield from th.all_free(store.array)
            if t == 0:
                self.objs.pop(op.obj, None)
                self.handle_map.pop(store.array.handle, None)
            self.after_fencing(th, f"kv_free@phase{pi}")
        else:  # pragma: no cover - validator rejects these
            raise ValueError(f"driver: unknown collective {op.kind!r}")

    def _thread_op(self, th, op, key: OpKey):
        a = op.args
        if op.kind == "fence":
            yield from th.fence()
            return
        if op.kind == "compute":
            yield from th.compute(a["usec"])
            return
        if op.kind == "poll":
            yield from th.poll()
            return
        if op.kind == "global_alloc":
            arr = yield from th.global_alloc(
                a["nelems"], blocksize=a.get("blocksize"),
                dtype=a["dtype"])
            self.objs[op.obj] = arr
            self.handle_map[arr.handle] = arr
            return
        if op.kind == "local_alloc":
            arr = yield from th.local_alloc(a["nelems"], dtype=a["dtype"])
            self.objs[op.obj] = arr
            self.handle_map[arr.handle] = arr
            return
        obj = self.objs[op.obj]
        record = None
        if op.kind == "get":
            record = yield from th.get(obj, a["index"])
        elif op.kind == "put":
            yield from th.put(obj, a["index"], a["values"])
        elif op.kind == "put_strict":
            yield from th.put_strict(obj, a["index"], a["values"])
        elif op.kind == "memget":
            record = yield from th.memget(obj, a["index"], a["nelems"])
        elif op.kind == "memput":
            yield from th.memput(obj, a["index"], a["values"])
        elif op.kind == "memget_v":
            record = yield from th.memget_v(
                obj, [tuple(sp) for sp in a["spans"]])
        elif op.kind == "memput_v":
            yield from th.memput_v(obj, [(i, v) for i, v in a["puts"]])
        elif op.kind == "gather":
            record = yield from th.gather(
                obj, a["indices"], width=a.get("width", 4),
                nelems=a.get("nelems", 1))
        elif op.kind == "ptr_walk":
            # Exercise pointer-to-shared arithmetic: walk delta from a
            # base pointer, then read through the resulting index.
            ptr = PointerToShared.from_index(obj.layout, a["index"])
            ptr = ptr + a["delta"]
            record = yield from th.get(obj, ptr.to_index())
        elif op.kind == "lock_add":
            lck = self.locks[a["lock"]]
            yield from th.lock(lck)
            v = yield from th.get(obj, a["index"])
            yield from th.put(obj, a["index"],
                              obj.dtype.type(v + a["delta"]))
            # The new value must be applied at the owner before the
            # lock releases, or the next locker reads a stale value.
            yield from th.fence()
            yield from th.unlock(lck)
        elif op.kind == "get_rc":
            record = yield from th.get_rc(obj, a["r"], a["c"])
        elif op.kind == "put_rc":
            yield from th.put_rc(obj, a["r"], a["c"], a["value"])
        elif op.kind == "memget_row":
            record = yield from th.memget_row(obj, a["r"], a["c0"],
                                              a["nelems"])
        elif op.kind == "kv_get":
            record = yield from obj.get(th, a["key"])
        elif op.kind == "kv_put":
            yield from obj.put(th, a["key"], a["value"])
        elif op.kind == "kv_del":
            record = yield from obj.delete(th, a["key"])
        elif op.kind == "kv_mget":
            record = yield from obj.multi_get(th, a["keys"])
        else:  # pragma: no cover - validator rejects these
            raise ValueError(f"driver: unknown op {op.kind!r}")
        if record is not None and op.kind in CHECKED_KINDS:
            self.returns[key] = canonical(record)


# ---------------------------------------------------------------------------
# Differential comparison
# ---------------------------------------------------------------------------

def run_config(program: Program, point: ConfigPoint,
               oracle: OracleResult,
               fault_plan=None, repair_policy=None) -> List[Divergence]:
    """Replay ``program`` under one config; return its divergences.

    With ``fault_plan`` set the run executes under deterministic fault
    injection — drops, duplicates, stalls, pin exhaustion, a
    time-evolving lossy fabric — optionally watched by a
    ``repair_policy`` (:data:`repro.faults.POLICIES` name), and the
    reliability layer (see :mod:`repro.faults`) must still deliver
    oracle-identical values: only timing may change.  Any divergence
    under faults is a real recovery bug: a lost retry, a
    double-applied duplicate, a degraded handle serving stale data.
    """
    divs: List[Divergence] = []

    def div(kind, detail, **kw):
        if fault_plan is not None:
            policy = f" policy {repair_policy}" if repair_policy else ""
            detail = f"[fault seed {fault_plan.seed}{policy}] {detail}"
        divs.append(Divergence(config=point.name, kind=kind,
                               detail=detail, program=program, **kw))

    cfg = point.runtime_config(program.nthreads,
                               seed=program.seed or 0)
    if fault_plan is not None:
        cfg = replace(cfg, fault_plan=fault_plan,
                      repair_policy=repair_policy)
    rt = Runtime(cfg)
    driver = _Driver(rt, program)
    rt.spawn(driver.kernel)
    try:
        rt.run()
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        div("crash", f"{type(exc).__name__}: {exc}")
        return divs

    for msg in driver.problems:
        div("invariant", msg)

    keys = set(oracle.returns) | set(driver.returns)
    for key in sorted(keys):
        if key not in driver.returns:
            div("return", "runtime recorded no value", op_key=key,
                expected=oracle.returns[key])
        elif key not in oracle.returns:
            div("return", "runtime recorded an unexpected value",
                op_key=key, actual=driver.returns[key])
        elif not values_equal(oracle.returns[key], driver.returns[key]):
            div("return", "checked op returned a different value",
                op_key=key, expected=oracle.returns[key],
                actual=driver.returns[key])

    for obj_id in live_objects_at_end(program):
        want = oracle.final.get(obj_id)
        obj = driver.objs.get(obj_id)
        if obj is None:
            got = None
        elif isinstance(want, dict):
            # kv stores compare at the service level: the decoded
            # {key: value} snapshot vs the oracle's flat dict (slot
            # placement inside buckets is an implementation detail).
            got = obj.snapshot()
        else:
            got = obj.data
        if got is None:
            div("final", f"object {obj_id} missing at program end",
                expected=want)
        elif not values_equal(want, got):
            div("final", f"object {obj_id} final contents differ",
                expected=want, actual=got.copy())
    return divs


def run_differential(program: Program,
                     configs: Optional[List[ConfigPoint]] = None,
                     oracle_result: Optional[OracleResult] = None,
                     stop_on_first: bool = False,
                     fault_plan=None,
                     repair_policy=None) -> List[Divergence]:
    """Replay ``program`` across ``configs`` (default: quick matrix)
    and return every divergence from the flat oracle."""
    oracle = oracle_result or run_oracle(program)
    divs: List[Divergence] = []
    for point in configs if configs is not None else list(QUICK_MATRIX):
        divs.extend(run_config(program, point, oracle,
                               fault_plan=fault_plan,
                               repair_policy=repair_policy))
        if divs and stop_on_first:
            break
    return divs


# ---------------------------------------------------------------------------
# The fuzz loop (CLI + test entry point)
# ---------------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seeds_run: List[int] = field(default_factory=list)
    programs_run: int = 0
    ops_run: int = 0
    configs: List[str] = field(default_factory=list)
    failures: List[Divergence] = field(default_factory=list)
    #: Shrunk reproducer programs, parallel to ``failures`` batches.
    reproducers: List[Program] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def record_flight(program: Program, point: ConfigPoint,
                  path: str, fault_plan=None) -> int:
    """Replay ``program`` under ``point`` with the flight recorder on
    and dump the event log as JSONL to ``path``.

    The replay is expected to diverge or even crash — that is why it
    is being recorded — so the run is wrapped and whatever events were
    captured up to the failure are flushed.  Returns the number of
    events written.
    """
    import os

    from repro.obs.events import EventLog
    from repro.obs.export import dump_jsonl

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    events = EventLog()
    cfg = replace(point.runtime_config(program.nthreads,
                                       seed=program.seed or 0),
                  events=events, fault_plan=fault_plan)
    rt = Runtime(cfg)
    driver = _Driver(rt, program)
    rt.spawn(driver.kernel)
    try:
        rt.run()
    except Exception:  # noqa: BLE001 - the crash is the point
        pass
    dump_jsonl(events, path)
    return len(events)


def fuzz(seeds, n_ops: int = 200, nthreads: int = 4,
         configs: Optional[List[ConfigPoint]] = None,
         shrink_failures: bool = True,
         corpus_dir: Optional[str] = None,
         trace_dir: Optional[str] = None,
         fault_plan=None,
         kv: bool = False,
         log=print) -> FuzzReport:
    """Generate-one, replay-everywhere, shrink-on-failure.

    ``seeds`` is any iterable of ints.  On a divergence the failing
    program is greedily shrunk (re-validating every candidate, so the
    minimized program is still race-free) and the reproducer is
    printed as a pytest snippet; with ``corpus_dir`` set it is also
    serialized there as JSON for the regression corpus.  With
    ``trace_dir`` set each shrunk failing program is additionally
    replayed under the first failing config with the protocol flight
    recorder on, and the JSONL event log is written there (uploaded as
    a CI artifact on failure; see docs/OBSERVABILITY.md).

    With ``fault_plan`` set every replay runs under deterministic
    fault injection, each program under its own derived fault seed
    (``plan.with_seed``) so a campaign explores many fault schedules
    while any failure stays replayable from the two seeds alone.
    """
    from repro.testing.generator import generate_program
    from repro.testing.shrink import shrink

    matrix = list(configs) if configs is not None else list(QUICK_MATRIX)
    report = FuzzReport(configs=[p.name for p in matrix])
    for seed in seeds:
        program = generate_program(seed, n_ops=n_ops, nthreads=nthreads,
                                   kv=kv)
        report.seeds_run.append(seed)
        report.programs_run += 1
        report.ops_run += program.n_ops
        plan = None
        if fault_plan is not None:
            plan = fault_plan.with_seed(fault_plan.seed + 1000003 * seed)
        divs = run_differential(program, configs=matrix, fault_plan=plan)
        if not divs:
            log(f"seed {seed}: {program.n_ops} ops x "
                f"{len(matrix)} configs ok"
                + (f" (fault seed {plan.seed})" if plan else ""))
            continue
        log(f"seed {seed}: {len(divs)} divergence(s); first:\n"
            f"{divs[0].describe()}")
        report.failures.extend(divs)
        reproducer = program
        if shrink_failures:
            failing = {d.config for d in divs}
            points = [p for p in matrix if p.name in failing]

            def still_fails(candidate: Program) -> bool:
                return bool(run_differential(candidate, configs=points,
                                             stop_on_first=True,
                                             fault_plan=plan))

            reproducer = shrink(program, still_fails)
            log(f"seed {seed}: shrunk {program.n_ops} -> "
                f"{reproducer.n_ops} ops")
        report.reproducers.append(reproducer)
        first_cfg = divs[0].config
        log("reproducer (pytest):\n"
            + reproducer.to_pytest_snippet(config_name=first_cfg))
        if corpus_dir is not None:
            import os
            os.makedirs(corpus_dir, exist_ok=True)
            path = os.path.join(corpus_dir,
                                f"shrunk-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(reproducer.dumps(indent=2) + "\n")
            log(f"saved reproducer to {path}")
        if trace_dir is not None:
            import os
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(
                trace_dir, f"shrunk-seed{seed}-{first_cfg}.events.jsonl")
            point = next(p for p in matrix if p.name == first_cfg)
            n = record_flight(reproducer, point, path, fault_plan=plan)
            log(f"saved flight-recorder log ({n} events) to {path}")
    return report
