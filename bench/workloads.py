"""The four frozen workloads: load generators, kernels and oracles.

Everything that decides *what load the system sees* lives here —
sizes, key/arrival/offset streams, the kernels themselves — so a later
change to ``src/`` cannot change the load.  The system is reached only
through public entry points (``Runtime``/``RuntimeConfig``/``UPCThread``
ops, ``kv_create``/``KVStore``, ``run_kv_traffic``) and read back only
through public result objects (``RunResult``, ``RuntimeMetrics``,
``CacheStats``, ``TrafficResult``/``ShardedRun.metrics``).

A workload is a module-level object with::

    generate(seed, scale) -> inputs     # numpy only; same seed, same inputs
    run(inputs, cache=True, events=None, traced=False) -> Outcome

``scale`` multiplies the per-thread op counts (1.0 = the frozen full
size, 0.1 = warm-up and ``--quick``); thread and node counts never
shrink, because contention is what the workloads are about.

The sizes below were tuned once so that one repetition takes 6 +/- 1 s
on the 2-core reference box, and are frozen: changing one invalidates
every number measured before.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import GM_MARENOSTRUM, LAPI_POWER5, Runtime, RuntimeConfig
from repro.service import kv_create
from repro.workloads.kv_traffic import (TrafficParams, hist_edges,
                                        run_kv_traffic)

#: Every exact layer counter a repetition reports; a workload that does
#: not exercise a layer reports 0 for it (that *is* the measurement:
#: "zero outside shard_traffic").
COUNTER_NAMES = (
    "sim.core.events",
    "sim.shard.sync_rounds", "sim.shard.stall_grains",
    "sim.shard.msgs_routed", "sim.shard.channel_bytes",
    "sim.shard.max_backlog",
    "network.am_ops", "network.rdma_ops", "network.rdma_fraction",
    "network.retries", "network.timeouts", "network.max_backlog",
    "core.cache_hit_rate", "core.cache_evictions",
    "core.cache_invalidations", "core.cache_bookkeeping_us",
    "memory.bytes_moved",
    "runtime.remote_gets", "runtime.remote_puts",
    "runtime.local_shm_accesses", "runtime.barriers",
    "runtime.lock_acquires", "runtime.bulk_messages",
    "runtime.bulk_coalesced_segments", "runtime.bulk_mean_depth",
    "service.kv_gets", "service.kv_puts", "service.kv_mgets",
    "service.kv_onesided_ops", "service.kv_rpc_ops",
    "service.kv_failover_ops",
    "workloads.requests", "workloads.hit_rate", "workloads.conns",
    "workloads.failures",
    "faults.injected",
)


@dataclass
class Outcome:
    """What one repetition produced.

    Every field except ``host`` is a pure function of the inputs (the
    simulation is deterministic), so two repetitions — and the traced
    repetition — must agree on :meth:`exact` bit for bit.
    """

    ops: int
    failed: int
    sim_elapsed_us: float
    sim_op_p50_us: float
    sim_op_p99_us: float
    nsamples: int
    counters: Dict[str, float]
    #: Opaque, comparable fingerprint of the outputs (final positions,
    #: array checksum, per-client digests).
    digest: object = None
    #: Host-clock facts only the run itself can know (per-shard busy
    #: seconds); never part of the identity check.
    host: Dict[str, float] = field(default_factory=dict)
    #: (recorded, dropped) flight-recorder events of a traced sharded
    #: run, whose per-shard logs bypass ``RuntimeConfig.events``.
    shard_trace: Optional[tuple] = None

    def exact(self) -> Dict[str, object]:
        """Everything that must repeat bit for bit, JSON-representable
        (floats survive a JSON round trip exactly)."""
        out = {"ops": self.ops, "failed": self.failed,
               "sim_elapsed_us": self.sim_elapsed_us,
               "sim_op_p50_us": self.sim_op_p50_us,
               "sim_op_p99_us": self.sim_op_p99_us,
               "nsamples": self.nsamples,
               "digest": hashlib.sha256(
                   repr(self.digest).encode()).hexdigest()}
        out.update(self.counters)
        return out


def _zero_counters() -> Dict[str, float]:
    return dict.fromkeys(COUNTER_NAMES, 0)


def _percentiles(samples) -> tuple:
    """(p50, p99) of exact samples; ``higher`` keeps both values real
    observations, so equal inputs give bit-equal outputs."""
    arr = np.asarray(samples, dtype=np.float64)
    p50, p99 = np.percentile(arr, [50, 99], method="higher")
    return float(p50), float(p99)


def _hist_quantile(hist: np.ndarray, q: float) -> float:
    """Quantile of a log-binned FCT histogram, interpolated inside the
    crossing bin (kv_traffic's own ``hist_quantile`` returns the bin's
    upper edge, which reads the same for every seed)."""
    cum = np.cumsum(hist)
    target = q * float(cum[-1])
    i = int(np.searchsorted(cum, target, side="left"))
    below = float(cum[i - 1]) if i else 0.0
    frac = (target - below) / float(hist[i])
    lo, hi = np.log(hist_edges()[i:i + 2])
    return float(np.exp(lo + frac * (hi - lo)))


def _runtime_counters(result, bytes_moved: int) -> Dict[str, float]:
    """Layer counters of a real-runtime repetition, read from the
    public ``RunResult``."""
    m, cs = result.metrics, result.cache_stats
    s = m.summary()
    c = _zero_counters()
    c.update({
        "sim.core.events": result.sim_events,
        "network.am_ops": s["am_gets"] + s["am_puts"],
        "network.rdma_ops": s["rdma_gets"] + s["rdma_puts"],
        "network.rdma_fraction": s["rdma_fraction"],
        "network.retries": s["retries"],
        "network.timeouts": s["timeouts"],
        "network.max_backlog": s["max_backlog"],
        "core.cache_hit_rate": cs.hit_rate,
        "core.cache_evictions": cs.evictions,
        "core.cache_invalidations": cs.invalidations,
        "core.cache_bookkeeping_us": cs.overhead_us,
        "memory.bytes_moved": bytes_moved,
        "runtime.remote_gets": s["remote_gets"],
        "runtime.remote_puts": s["remote_puts"],
        "runtime.local_shm_accesses": (s["shm_accesses"]
                                       + s["local_accesses"]),
        "runtime.barriers": s["barriers"],
        "runtime.lock_acquires": m.lock_acquires,
        "runtime.bulk_messages": s["bulk_messages"],
        "runtime.bulk_coalesced_segments": s["bulk_coalesced_segments"],
        "runtime.bulk_mean_depth": s["bulk_mean_depth"],
        "service.kv_gets": m.kv_gets,
        "service.kv_puts": m.kv_puts,
        "service.kv_mgets": m.kv_mgets,
        "service.kv_onesided_ops": m.kv_onesided_ops,
        "service.kv_rpc_ops": m.kv_rpc_ops,
        "service.kv_failover_ops": s["kv_failover_ops"],
        "faults.injected": s["faults_injected"],
    })
    return c


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


# ---------------------------------------------------------------------
# pointer_get
# ---------------------------------------------------------------------

class PointerGet:
    name = "pointer_get"
    why = ("smallest message, so per-message cost dominates: runtime "
           "ops, address cache hit and miss/evict paths, polling "
           "transport and event core; bulk engine and sharding idle")
    reference = ("paper Fig 9a: Pointer on GM gains 30-60 % from the "
                 "address cache")
    has_address_cache = True

    NTHREADS = 256
    THREADS_PER_NODE = 4
    NELEMS = 1 << 14
    HOPS = 400
    WORK_US = 0.3
    #: Below the 63 peers each node talks to, so the cache evicts.
    CACHE_CAPACITY = 32

    def generate(self, seed: int, scale: float) -> dict:
        rng = np.random.default_rng([seed, 0x9E7])
        perm = rng.permutation(self.NELEMS)
        chain = np.empty(self.NELEMS, dtype=np.uint64)
        chain[perm] = np.roll(perm, -1)
        starts = rng.integers(0, self.NELEMS, size=self.NTHREADS)
        return {"seed": seed, "chain": chain, "starts": starts,
                "hops": _scaled(self.HOPS, scale)}

    def run(self, inputs: dict, cache: bool = True, events=None,
            traced: bool = False) -> Outcome:
        chain, starts, hops = (inputs["chain"], inputs["starts"],
                               inputs["hops"])
        rt = Runtime(RuntimeConfig(
            machine=GM_MARENOSTRUM, nthreads=self.NTHREADS,
            threads_per_node=self.THREADS_PER_NODE,
            cache_enabled=cache, cache_capacity=self.CACHE_CAPACITY,
            seed=inputs["seed"], events=events))
        sim = rt.sim
        finals = np.full(self.NTHREADS, -1, dtype=np.int64)
        lat: List[float] = []
        work_us = self.WORK_US
        nelems = self.NELEMS

        def kernel(th):
            arr = yield from th.all_alloc(nelems, blocksize=None,
                                          dtype="u8")
            if th.id == 0:
                arr.data[:] = chain          # untimed input load
            yield from th.barrier()
            idx = int(starts[th.id])
            for _ in range(hops):
                t0 = sim.now
                nxt = yield from th.get(arr, idx)
                lat.append(sim.now - t0)
                yield from th.compute(work_us)
                idx = int(nxt)
            finals[th.id] = idx
            yield from th.barrier()

        rt.spawn(kernel)
        result = rt.run()

        # Oracle: walk the chain in numpy, all threads at once.
        pos = starts.astype(np.int64)
        for _ in range(hops):
            pos = chain[pos].astype(np.int64)
        wrong_threads = int(np.count_nonzero(pos != finals))
        p50, p99 = _percentiles(lat)
        ops = self.NTHREADS * hops
        return Outcome(
            ops=ops,
            # A pointer chase is a dependent chain: one wrong GET
            # spoils every later hop of that thread.
            failed=wrong_threads * hops + (ops - len(lat)),
            sim_elapsed_us=result.elapsed_us,
            sim_op_p50_us=p50, sim_op_p99_us=p99, nsamples=len(lat),
            counters=_runtime_counters(result, bytes_moved=8 * ops),
            digest=tuple(int(x) for x in finals))


# ---------------------------------------------------------------------
# bulk_span
# ---------------------------------------------------------------------

class BulkSpan:
    name = "bulk_span"
    why = ("same runtime and transport used for bytes, not messages: "
           "bulk engine, pinning, numpy copies, rendezvous and "
           "interrupt progress; writes (AM) beside reads (RDMA); "
           "address cache irrelevant")
    reference = "no reference"
    has_address_cache = True

    NTHREADS = 32
    THREADS_PER_NODE = 4
    BLOCK_ELEMS = 512                    # 4 KiB of u8 (uint64) words
    REGION_BLOCKS = 512                  # thread-private, 2 MiB
    SPAN_BLOCKS = (1, 16, 256)
    ITERATIONS = 120                     # alternating put / get
    POOL_ELEMS = 1 << 18                 # 2 MiB of put payload

    def generate(self, seed: int, scale: float) -> dict:
        rng = np.random.default_rng([seed, 0xB01C])
        iters = max(6, 6 * _scaled(self.ITERATIONS // 6, scale))
        region = self.REGION_BLOCKS * self.BLOCK_ELEMS
        nelems = self.NTHREADS * region
        init = rng.integers(0, 1 << 62, size=nelems, dtype=np.uint64)
        pool = rng.integers(0, 1 << 62, size=self.POOL_ELEMS,
                            dtype=np.uint64)
        # Every thread sees each span size equally often for puts and
        # for gets (fixed bytes moved); the seed orders them and picks
        # the offsets.
        sizes = np.repeat(np.array(self.SPAN_BLOCKS), iters // 6)
        plan = []
        for _ in range(self.NTHREADS):
            put_sizes = rng.permutation(sizes)
            get_sizes = rng.permutation(sizes)
            blocks = np.empty(iters, dtype=np.int64)
            blocks[0::2] = put_sizes
            blocks[1::2] = get_sizes
            start = (rng.random(iters)
                     * (self.REGION_BLOCKS - blocks + 1)).astype(np.int64)
            src = (rng.random(iters)
                   * (self.POOL_ELEMS - blocks * self.BLOCK_ELEMS + 1)
                   ).astype(np.int64)
            plan.append((blocks, start, src))
        return {"seed": seed, "init": init, "pool": pool, "plan": plan,
                "iters": iters, "nelems": nelems}

    def run(self, inputs: dict, cache: bool = True, events=None,
            traced: bool = False) -> Outcome:
        init, pool, plan = inputs["init"], inputs["pool"], inputs["plan"]
        iters, nelems = inputs["iters"], inputs["nelems"]
        rt = Runtime(RuntimeConfig(
            machine=LAPI_POWER5, nthreads=self.NTHREADS,
            threads_per_node=self.THREADS_PER_NODE,
            cache_enabled=cache, seed=inputs["seed"], events=events))
        sim = rt.sim
        be = self.BLOCK_ELEMS
        region = self.REGION_BLOCKS * be
        mirror = init.copy()
        lat: List[float] = []
        tally = {"failed": 0, "bytes": 0}
        holder = {}

        def kernel(th):
            arr = yield from th.all_alloc(nelems, blocksize=be,
                                          dtype="u8")
            if th.id == 0:
                arr.data[:] = init           # untimed input load
                holder["arr"] = arr
            yield from th.barrier()
            blocks, start, src = plan[th.id]
            base = th.id * region
            for i in range(iters):
                n = int(blocks[i]) * be
                lo = base + int(start[i]) * be
                t0 = sim.now
                if i % 2 == 0:
                    values = pool[int(src[i]):int(src[i]) + n]
                    yield from th.memput(arr, lo, values)
                    yield from th.fence()
                    lat.append(sim.now - t0)
                    mirror[lo:lo + n] = values
                else:
                    got = yield from th.memget(arr, lo, n)
                    lat.append(sim.now - t0)
                    if not np.array_equal(got, mirror[lo:lo + n]):
                        tally["failed"] += 1
                tally["bytes"] += 8 * n
            yield from th.barrier()

        rt.spawn(kernel)
        result = rt.run()

        final = holder["arr"].data
        # Final image: one failed op per thread region that differs.
        bad_regions = int(np.count_nonzero(
            (final != mirror).reshape(self.NTHREADS, region).any(axis=1)))
        p50, p99 = _percentiles(lat)
        ops = self.NTHREADS * iters
        return Outcome(
            ops=ops,
            failed=tally["failed"] + bad_regions + (ops - len(lat)),
            sim_elapsed_us=result.elapsed_us,
            sim_op_p50_us=p50, sim_op_p99_us=p99, nsamples=len(lat),
            counters=_runtime_counters(result,
                                       bytes_moved=tally["bytes"]),
            digest=int(np.bitwise_xor.reduce(final)))


# ---------------------------------------------------------------------
# kv_mix
# ---------------------------------------------------------------------

class KVMix:
    name = "kv_mix"
    why = ("the real KVStore under Zipf skew: service layer, striped "
           "locks, fences and vectored bulk reads queueing at hot "
           "homes; the tail-latency workload")
    reference = "no reference"
    has_address_cache = True

    NTHREADS = 64
    THREADS_PER_NODE = 4
    NBUCKETS = 2048
    SLOTS = 8
    NLOCKS = 64
    NKEYS = 4096
    OPS_PER_THREAD = 800
    GET_FRAC, PUT_FRAC = 0.70, 0.20      # the rest is multi_get
    MGET_KEYS = 8
    ZIPF_S = 0.99
    THINK_US = 0.5

    GET, PUT, MGET = 0, 1, 2

    @staticmethod
    def value_of(keys, seed: int):
        """The value every key holds for the whole run; puts rewrite
        it, so any read of any key has exactly one right answer."""
        return (np.asarray(keys, dtype=np.int64) * 2654435761
                + seed * 97 + 1) % (1 << 31)

    def generate(self, seed: int, scale: float) -> dict:
        rng = np.random.default_rng([seed, 0x4B56])
        n = _scaled(self.OPS_PER_THREAD, scale)
        total = self.NTHREADS * n
        weights = np.arange(1, self.NKEYS + 1, dtype=np.float64) \
            ** -self.ZIPF_S
        cdf = np.cumsum(weights) / weights.sum()
        # Which keys are hot — and so which homes and stripe locks
        # queue — is part of the frozen workload, not of the seed.
        key_of_rank = np.random.default_rng(0x4B56).permutation(self.NKEYS)

        def zipf_keys(count: int) -> np.ndarray:
            """``count`` keys with exactly Zipf frequencies (stratified
            quantiles), in seeded order."""
            ranks = np.searchsorted(cdf, (np.arange(count) + 0.5) / count)
            return key_of_rank[rng.permutation(ranks)]

        # The op mix and the key popularity are exact in every seed
        # (the hot stripe lock saturates, so an i.i.d. draw would move
        # elapsed time and the tail by the binomial noise in "puts to
        # the hottest key"); the seed decides who issues what, when.
        n_get = int(round(total * self.GET_FRAC))
        n_put = int(round(total * self.PUT_FRAC))
        n_mget = total - n_get - n_put
        kinds = np.repeat([self.GET, self.PUT, self.MGET],
                          [n_get, n_put, n_mget])
        keys = np.zeros((total, self.MGET_KEYS), dtype=np.int64)
        keys[:n_get, 0] = zipf_keys(n_get)
        keys[n_get:n_get + n_put, 0] = zipf_keys(n_put)
        keys[n_get + n_put:] = zipf_keys(
            n_mget * self.MGET_KEYS).reshape(n_mget, self.MGET_KEYS)
        deal = rng.permutation(total)
        kinds = kinds[deal].reshape(self.NTHREADS, n)
        keys = keys[deal].reshape(self.NTHREADS, n, self.MGET_KEYS)
        streams = [(kinds[t], keys[t]) for t in range(self.NTHREADS)]
        return {"seed": seed, "streams": streams, "n": n}

    def run(self, inputs: dict, cache: bool = True, events=None,
            traced: bool = False) -> Outcome:
        seed, streams, n = inputs["seed"], inputs["streams"], inputs["n"]
        rt = Runtime(RuntimeConfig(
            machine=GM_MARENOSTRUM, nthreads=self.NTHREADS,
            threads_per_node=self.THREADS_PER_NODE,
            cache_enabled=cache, seed=seed, events=events))
        sim = rt.sim
        nnodes = self.NTHREADS // self.THREADS_PER_NODE
        # Stripe locks homed round-robin over the nodes.
        locks = [rt.alloc_lock((i % nnodes) * self.THREADS_PER_NODE)
                 for i in range(self.NLOCKS)]
        all_keys = np.arange(self.NKEYS, dtype=np.int64)
        truth_arr = self.value_of(all_keys, seed)
        truth = truth_arr.tolist()
        span = 2 * self.SLOTS
        lat: List[float] = []
        tally = {"failed": 0, "bytes": 0}
        holder = {}
        think = self.THINK_US
        GET, PUT = self.GET, self.PUT

        def kernel(th):
            store = yield from kv_create(
                th, self.NBUCKETS, slots_per_bucket=self.SLOTS,
                access="onesided", locks=locks)
            if th.id == 0:
                # Untimed preload through the data plane, in the
                # store's documented bucket format ([key+1, value]
                # cells); the oracle below would catch a format drift.
                cells = store.array.data
                slot_of = all_keys // self.NBUCKETS
                base = (all_keys % self.NBUCKETS) * span + 2 * slot_of
                cells[base] = (all_keys + 1).astype(np.uint64)
                cells[base + 1] = truth_arr.astype(np.uint64)
                holder["store"] = store
            yield from th.barrier()
            kinds, keys = streams[th.id]
            for i in range(n):
                kind = int(kinds[i])
                t0 = sim.now
                if kind == GET:
                    k = int(keys[i, 0])
                    v = yield from store.get(th, k)
                    ok = v == truth[k]
                    tally["bytes"] += 8 * span
                elif kind == PUT:
                    k = int(keys[i, 0])
                    yield from store.put(th, k, truth[k])
                    ok = True                 # checked by the snapshot
                    tally["bytes"] += 8 * span + 16
                else:
                    ks = [int(k) for k in keys[i]]
                    vs = yield from store.multi_get(th, ks)
                    ok = list(vs) == [truth[k] for k in ks]
                    tally["bytes"] += 8 * span * len(
                        {k % self.NBUCKETS for k in ks})
                lat.append(sim.now - t0)
                if not ok:
                    tally["failed"] += 1
                yield from th.compute(think)
            yield from th.barrier()

        rt.spawn(kernel)
        result = rt.run()

        snapshot = holder["store"].snapshot()
        oracle = dict(enumerate(truth))
        wrong_keys = sum(1 for k in oracle.keys() | snapshot.keys()
                         if oracle.get(k) != snapshot.get(k))
        p50, p99 = _percentiles(lat)
        ops = self.NTHREADS * n
        return Outcome(
            ops=ops,
            failed=tally["failed"] + wrong_keys + (ops - len(lat)),
            sim_elapsed_us=result.elapsed_us,
            sim_op_p50_us=p50, sim_op_p99_us=p99, nsamples=len(lat),
            counters=_runtime_counters(result,
                                       bytes_moved=tally["bytes"]),
            digest=tuple(sorted(snapshot.items())))


# ---------------------------------------------------------------------
# shard_traffic
# ---------------------------------------------------------------------

class ShardTraffic:
    name = "shard_traffic"
    why = ("open-loop Poisson KV traffic on the 2-worker sharded core: "
           "the only workload carried by shard sync, cross-shard "
           "pickling and kv_traffic's per-request Python; the real "
           "runtime is idle")
    reference = "no reference"
    #: The skeleton models its own client LRU; ``cache=False`` would
    #: change nothing, so there is no cache-off companion.
    has_address_cache = False

    REQUESTS = 220_000
    NSHARDS = 2
    #: Request size on the modelled wire (kv_traffic's GET request +
    #: reply), for the computed bytes-moved figure only.
    WIRE_BYTES_PER_REQUEST = 104

    def generate(self, seed: int, scale: float) -> dict:
        # Arrival and key streams are drawn inside run_kv_traffic from
        # this seed (entity-keyed, so layout-invariant); the benchmark
        # fixes every parameter that shapes them.
        return {"params": TrafficParams(
            nnodes=8, nclients=32, nkeys=4096, nbuckets=512,
            requests=_scaled(self.REQUESTS, scale), mean_gap_us=2.0,
            zipf_s=1.2, put_frac=0.1, cache_capacity=16, seed=seed,
            machine="gm")}

    def run(self, inputs: dict, cache: bool = True, events=None,
            traced: bool = False) -> Outcome:
        params = inputs["params"]
        # The traced repetition runs in-process so the profiler sees
        # the worker code; its digests must equal the mp run's.
        res = run_kv_traffic(params, nshards=self.NSHARDS,
                             mode="inproc" if traced else "mp",
                             trace=traced)
        run = res.extra["run"]
        requested = params.per_client() * params.nclients
        failures = sum(o["counts"]["failures"] for o in run.outputs)
        c = _zero_counters()
        c.update({
            "sim.core.events": res.events,
            "sim.shard.sync_rounds": run.rounds,
            "sim.shard.stall_grains": sum(m.stall_grains
                                          for m in run.metrics),
            "sim.shard.msgs_routed": run.msgs_routed,
            "sim.shard.channel_bytes": sum(m.channel_bytes
                                           for m in run.metrics),
            "sim.shard.max_backlog": max(m.max_backlog
                                         for m in run.metrics),
            "memory.bytes_moved": (self.WIRE_BYTES_PER_REQUEST
                                   * res.requests),
            "workloads.requests": res.requests,
            "workloads.hit_rate": res.hit_rate,
            "workloads.conns": res.conns,
            "workloads.failures": failures,
        })
        return Outcome(
            ops=requested,
            failed=abs(requested - res.requests) + failures,
            sim_elapsed_us=res.now,
            sim_op_p50_us=_hist_quantile(res.hist, 0.50),
            sim_op_p99_us=_hist_quantile(res.hist, 0.99),
            nsamples=int(res.hist.sum()),
            counters=c,
            digest=tuple(sorted(res.digests.items())),
            host={"busy_share": (max(m.busy_s for m in run.metrics)
                                 / run.wall_s if run.wall_s > 0 else 0.0)},
            shard_trace=(sum(len(b) for b in run.shard_events),
                         run.trace_dropped) if traced else None)


WORKLOADS = {w.name: w for w in (PointerGet(), BulkSpan(), KVMix(),
                                 ShardTraffic())}
