"""The metric registry: every name the benchmark reports, once.

``BENCHMARK.json`` at the repo root is this table in the driver's
format (``bench/tests/test_contract.py`` holds them equal); the README
glossary and the ``--aa`` exactness check read the same rows.

``clock`` says what a number is made of:

``host``     wall/CPU seconds or bytes of this machine — noisy, compared
             within a bound;
``virtual``  simulated microseconds — a pure function of the inputs,
             bit-identical for the same seed on any machine;
``count``    an exact count or ratio of counts from the run — likewise
             bit-identical for the same seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


#: Timed seconds per run (``run_seconds`` in BENCHMARK.json): three
#: repetitions of ~6 s on the reference box.
RUN_SECONDS = 20


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    clock: str                  # "host" | "virtual" | "count"
    doc: str
    bound: Optional[float] = None   # end-to-end only

    @property
    def exact(self) -> bool:
        return self.clock != "host"


#: Profile layers: a layer is a module (group) under ``src/repro/``,
#: plus ``numpy`` and the benchmark's own code.
LAYERS = ("sim.core", "sim.shard", "network", "memory", "core",
          "runtime", "service", "workloads", "util", "faults", "obs",
          "numpy", "bench")

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host",
           "child start -> first timed repetition: interpreter, import "
           "repro, input generation, 1/10-size warm-up; median over "
           "the run's fresh processes", 0.25),
    Metric("ops_per_host_s", "ops/s", "higher", "host",
           "the workload's fixed logical op count / median repetition "
           "wall seconds (build + run + oracle), n = repetitions",
           0.25),
    Metric("host_peak_rss_mb", "MiB", "lower", "host",
           "ru_maxrss of a measuring process, or of its largest "
           "worker, after its last timed repetition; median over "
           "processes", 0.10),
    Metric("sim_elapsed_us", "us", "lower", "virtual",
           "final simulated clock of one repetition", 0.15),
    Metric("sim_op_p50_us", "us", "lower", "virtual",
           "median simulated latency of the logical op, exact samples "
           "timed around the public call (FCT histogram on "
           "shard_traffic)", 0.10),
    Metric("sim_op_p99_us", "us", "lower", "virtual",
           "99th percentile of the same samples (>= 38 samples beyond "
           "it on every workload)", 0.15),
]


def _layer_rows() -> List[Metric]:
    rows = []
    for layer in LAYERS:
        rows.append(Metric(
            f"{layer}.self_share", "ratio", "lower", "host",
            f"profiled self time of {layer} (built-ins charged to "
            "their caller) / traced total"))
        rows.append(Metric(
            f"{layer}.calls", "count", "lower", "count",
            f"profiled calls into {layer} functions"))
    return rows


PER_LAYER: List[Metric] = _layer_rows() + [
    # sim.core
    Metric("sim.core.events", "count", "lower", "count",
           "simulator events processed in one repetition"),
    Metric("sim.core.events_per_host_s", "1/s", "higher", "host",
           "events / median repetition wall seconds"),
    # sim.shard
    Metric("sim.shard.sync_rounds", "count", "lower", "count",
           "conservative-sync rounds"),
    Metric("sim.shard.stall_grains", "count", "lower", "count",
           "rounds in which a shard had nothing to do, summed"),
    Metric("sim.shard.msgs_routed", "count", "lower", "count",
           "cross-shard messages routed by the coordinator"),
    Metric("sim.shard.channel_bytes", "B", "lower", "count",
           "pickled bytes of cross-shard traffic"),
    Metric("sim.shard.busy_share", "ratio", "higher", "host",
           "max worker busy_s / run wall_s, median over repetitions"),
    Metric("sim.shard.max_backlog", "count", "lower", "count",
           "peak pending events at a round boundary"),
    # network
    Metric("network.am_ops", "count", "lower", "count",
           "remote ops served by the active-message protocol"),
    Metric("network.rdma_ops", "count", "higher", "count",
           "remote ops served one-sided"),
    Metric("network.rdma_fraction", "ratio", "higher", "count",
           "rdma_ops / remote ops"),
    Metric("network.retries", "count", "lower", "count",
           "AM attempts re-issued after a timeout"),
    Metric("network.timeouts", "count", "lower", "count",
           "retransmit / RDMA-completion timers expired"),
    Metric("network.max_backlog", "count", "lower", "count",
           "peak AM-handler backlog at any progress engine"),
    Metric("network.wire_us_p50", "us", "lower", "virtual",
           "median wire component of a remote GET (traced run)"),
    Metric("network.queue_us_p50", "us", "lower", "virtual",
           "median queue component of a remote GET (traced run)"),
    # core
    Metric("core.cache_hit_rate", "ratio", "higher", "count",
           "address-cache hits / lookups"),
    Metric("core.cache_evictions", "count", "lower", "count",
           "address-cache evictions"),
    Metric("core.cache_invalidations", "count", "lower", "count",
           "address-cache invalidations"),
    Metric("core.cache_bookkeeping_us", "us", "lower", "virtual",
           "simulated time spent on cache lookups and inserts"),
    Metric("core.cache_gain_pct", "%", "higher", "virtual",
           "(cache-off - cache-on) / cache-off simulated elapsed, "
           "from the cache-off companion repetition"),
    Metric("core.piggyback_us_p50", "us", "lower", "virtual",
           "median piggyback component of a remote GET (traced run)"),
    # memory
    Metric("memory.pin_us", "us", "lower", "virtual",
           "simulated registration cost, summed over pin events "
           "(traced run)"),
    Metric("memory.bytes_moved", "B", "lower", "count",
           "payload bytes of the logical ops, computed by the "
           "benchmark"),
    # runtime
    Metric("runtime.remote_gets", "count", "lower", "count",
           "wire-level remote GETs"),
    Metric("runtime.remote_puts", "count", "lower", "count",
           "wire-level remote PUTs"),
    Metric("runtime.local_shm_accesses", "count", "lower", "count",
           "accesses resolved locally or through node shared memory"),
    Metric("runtime.barriers", "count", "lower", "count",
           "barriers completed"),
    Metric("runtime.lock_acquires", "count", "lower", "count",
           "upc_lock acquisitions"),
    Metric("runtime.bulk_messages", "count", "lower", "count",
           "wire messages issued by the bulk engine"),
    Metric("runtime.bulk_coalesced_segments", "count", "higher",
           "count", "segments merged into an already-open message"),
    Metric("runtime.bulk_mean_depth", "count", "higher", "count",
           "mean in-flight bulk messages at issue"),
    Metric("runtime.software_us_p50", "us", "lower", "virtual",
           "median software residual of a remote GET (traced run)"),
    Metric("runtime.handler_us_p50", "us", "lower", "virtual",
           "median target-handler component of a remote GET (traced "
           "run)"),
    # service
    Metric("service.kv_gets", "count", "lower", "count", "KVStore.get calls"),
    Metric("service.kv_puts", "count", "lower", "count", "KVStore.put calls"),
    Metric("service.kv_mgets", "count", "lower", "count",
           "KVStore.multi_get calls"),
    Metric("service.kv_onesided_ops", "count", "higher", "count",
           "KV ops served by one-sided transfers"),
    Metric("service.kv_rpc_ops", "count", "lower", "count",
           "KV ops served by the AM/RPC path"),
    Metric("service.kv_failover_ops", "count", "lower", "count",
           "one-sided KV ops a repair policy flipped to RPC"),
    # workloads
    Metric("workloads.requests", "count", "higher", "count",
           "kv_traffic requests completed"),
    Metric("workloads.hit_rate", "ratio", "higher", "count",
           "kv_traffic client bucket-address cache hit rate"),
    Metric("workloads.conns", "count", "lower", "count",
           "kv_traffic persistent connections opened"),
    Metric("workloads.failures", "count", "lower", "count",
           "kv_traffic requests that exhausted their retries"),
    # faults, obs
    Metric("faults.injected", "count", "lower", "count",
           "fault-plane injections (healthy fabric: 0)"),
    Metric("obs.events_recorded", "count", "lower", "count",
           "flight-recorder events in the traced repetition"),
    Metric("obs.events_dropped", "count", "lower", "count",
           "flight-recorder events dropped by a full log"),
    Metric("obs.trace_overhead_ratio", "ratio", "lower", "host",
           "traced / untraced wall seconds at the traced size"),
    # bench, host
    Metric("bench.fail_share", "ratio", "lower", "count",
           "ops failed, refused or wrong against the oracle / ops "
           "attempted"),
    Metric("host.import_s", "s", "lower", "host",
           "importing numpy, repro and the workloads in the child"),
    Metric("host.cpu_s", "s", "lower", "host",
           "CPU seconds of one repetition incl. worker processes, "
           "median"),
    Metric("host.rep_iqr_s", "s", "lower", "host",
           "interquartile range of the repetition wall seconds"),
    Metric("host.gen_lateness_us", "us", "lower", "virtual",
           "how late the load generator ran; arrivals are virtual-time "
           "sleeps, so 0 by construction"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def contract(workloads) -> dict:
    """The ``BENCHMARK.json`` document for these metrics."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit,
                       "better": m.better} for m in PER_LAYER],
    }
