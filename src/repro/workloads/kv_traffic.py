"""Open-loop KV service traffic on the sharded event core.

The service-level companion to the fuzz suite's corpus skeleton (a
test-side shard program, ``tests/sim/shard_referees.py``): where the
fuzz suite proves the KV *semantics* (differential vs. a flat-dict
oracle),
this module measures the KV *service* — flow-completion time (FCT) of
millions of Zipf-keyed requests against bucket servers, under the two
access paths the runtime offers:

* a per-client remote-address cache **hit** models the one-sided path
  (the NIC serves the bucket; no software on the server's critical
  path), and
* a **miss** models the AM/RPC path (dispatch + SVD lookup + handler
  CPU, plus the bucket scan), after which the client installs the
  bucket address in its LRU cache.

Clients are **open loop**: each one draws Poisson arrivals and Zipfian
keys (:mod:`repro.workloads.streams`) and fires requests at their
scheduled instants without ever waiting for replies, so service-time
inflation shows up as FCT growth instead of silently throttling
offered load.  Connections are persistent — the first request a client
sends toward a server node pays a one-time setup round trip, folded
into that request's latency.

Layout invariance is engineered the same way as everywhere else in
the sharded core: every random stream is keyed by *entity* (client id)
through :class:`~repro.util.rng.StreamFamily`, all client state
(LRU cache, connection set) is mutated at issue time by the client's
own process, reply handlers are instantaneous, and FCTs land in
fixed-edge log-binned histograms whose cross-shard merge is an
elementwise sum — so ``shards=1/2/4`` produce bit-identical counts,
digests and quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.health import HealthTracker
from repro.faults.policy import (PolicyConfig, PolicyEngine,
                                 decisions_digest)
from repro.faults.plan import FaultPlan
from repro.faults.reliability import ReliabilityConfig
from repro.faults.trace import fate_u01
from repro.network.params import MACHINES
from repro.obs.events import OP_BEGIN, OP_END, POLICY_ACTION
from repro.obs.slo import (HIST_EDGES, SLO_HIST_BINS, SLOMonitor, bin_of,
                           detect_anomalies, hist_quantile, slo_summary)
from repro.sim.shard import ShardContext
from repro.util.rng import StreamFamily
from repro.workloads.sharded import (_KV_SCAN_US, ShardWire,
                                     _commute_hash_rows, _tq, run_sharded)
from repro.workloads.streams import (ClientStream, PoissonArrivals,
                                     ZipfianKeys)

#: FCT histograms use the SLO monitor's fixed log-bin geometry.
HIST_BINS = SLO_HIST_BINS

_GET_REQ_BYTES = 64
_PUT_REQ_BYTES = 72
_GET_REP_BYTES = 40
_PUT_REP_BYTES = 32
_CONN_BYTES = 64
#: Server-side cost of accepting a persistent connection (beyond the
#: handshake round trip itself).
_CONN_SETUP_US = 5.0
#: Extra handler cost of a mutating request (lock + write-back).
_PUT_EXTRA_US = 0.3

#: Retransmit model under a fault plan (client-side, planned whole at
#: issue time so the fate chain is a pure function of identity): the
#: transport's timeout and backoff rule with this harness's timings.
_RETRANSMIT = ReliabilityConfig(am_timeout_us=30.0, backoff_base_us=8.0,
                                backoff_max_us=64.0)
#: A retry on the one-sided path pays RDMA invalidation + AM address
#: re-validation on top of the retransmit (the Storm asymmetry that
#: makes ``path_failover`` worthwhile under sustained loss).
_ONESIDED_RETRY_PENALTY_US = 12.0
#: Digest salt folding the per-request fate chain (retries, failures)
#: into the per-client digest.
_FATE_SALT = 0x7ACE


def hist_edges() -> np.ndarray:
    """The (BINS + 1) bin edges in µs, shared by every shard: the SLO
    monitor's one read-only table."""
    return HIST_EDGES


def hist_cdf(hist: np.ndarray) -> list:
    """FCT CDF points ``[latency_us, cum_frac]`` at the upper edge of
    every occupied histogram bin — a pure function of the merged
    counts, hence layout-invariant.  Shared by the lossy-fabric bench
    and the campaign renderer (linkguardian-style per-policy CDFs)."""
    total = int(hist.sum())
    if total == 0:
        return []
    edges = hist_edges()
    cum = np.cumsum(hist)
    return [[round(float(edges[i + 1]), 3),
             round(float(cum[i]) / total, 6)]
            for i in range(HIST_BINS) if hist[i]]


@dataclass
class TrafficParams:
    """One KV-traffic experiment."""

    nnodes: int = 8
    nclients: int = 32
    nkeys: int = 4096
    nbuckets: int = 512
    slots_per_bucket: int = 4
    requests: int = 100_000          # total across all clients
    mean_gap_us: float = 2.0         # per-client inter-arrival mean
    zipf_s: float = 0.9
    put_frac: float = 0.1
    cache_capacity: int = 16         # per-client bucket-address LRU
    seed: int = 0
    machine: str = "gm"
    #: SLO latency target in µs; 0 disables the streaming monitor.
    slo_target_us: float = 0.0
    #: SLO rolling-window width (µs of virtual time).
    slo_window_us: float = 5000.0
    #: Fault-plan JSON (``FaultPlan.to_json()``; link loss, corruption
    #: and standing delay only — see :func:`check_fault_plan`); "" =
    #: healthy fabric, taking the exact pre-fault code path.
    fault_plan: str = ""
    #: Repair policy name (:data:`repro.faults.POLICIES`); "" = none.
    #: Requires a fault plan to observe.
    repair_policy: str = ""

    def __post_init__(self) -> None:
        for name in ("nnodes", "nclients", "requests", "nbuckets",
                     "slots_per_bucket", "cache_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"TrafficParams.{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        for name, ok, rule in (
                ("put_frac", 0.0 <= self.put_frac <= 1.0, "in [0, 1]"),
                ("zipf_s", 0.0 <= self.zipf_s < np.inf, "finite and >= 0"),
                ("mean_gap_us", 0.0 < self.mean_gap_us < np.inf,
                 "finite and > 0")):
            if not ok:      # NaN fails every comparison
                raise ValueError(f"TrafficParams.{name} must be {rule}, "
                                 f"got {getattr(self, name)}")

    def per_client(self) -> int:
        return max(1, -(-self.requests // self.nclients))


@dataclass
class TrafficResult:
    """Merged, layout-invariant outcome of one traffic run."""

    requests: int
    hits: int
    misses: int
    conns: int
    puts: int
    gets: int
    hist: np.ndarray
    hist_hit: np.ndarray
    hist_miss: np.ndarray
    digests: dict
    now: float
    events: int
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def quantiles(self) -> dict:
        return {
            "p50_us": hist_quantile(self.hist, 0.50),
            "p99_us": hist_quantile(self.hist, 0.99),
            "hit_p50_us": hist_quantile(self.hist_hit, 0.50),
            "hit_p99_us": hist_quantile(self.hist_hit, 0.99),
            "miss_p50_us": hist_quantile(self.hist_miss, 0.50),
            "miss_p99_us": hist_quantile(self.hist_miss, 0.99),
        }


def check_fault_plan(plan: FaultPlan) -> None:
    """Raise the harness's one capability error for a plan it cannot
    honour.  Fates here are identity hashes of whole request/reply
    exchanges on a closed-form wire model: there are no NICs, handlers
    or pins to stall, no second delivery, no per-message delay draw and
    one protocol family."""
    cannot = [f for f in ("nic_stalls", "handler_stalls", "pin_budgets")
              if getattr(plan, f)]
    segments = [seg for rule in plan.links for seg in rule.segments]
    if any(seg.duplicate > 0 for seg in segments):
        cannot.append("duplicate > 0")
    if any(seg.delay_prob < 1 for seg in segments):
        cannot.append("delay_prob < 1")
    if any(seg.scope != "both" for seg in segments):
        cannot.append('scope != "both"')
    if cannot:
        raise ValueError(
            f"the kv traffic harness models link loss, corruption and "
            f"standing delay only; fault plan {plan.name or 'custom'!r} "
            f"also has: {', '.join(cannot)}")


class _DigestFold:
    """Per-client digests ``sum(_commute_hash(a, b, c, d)) mod 2^64``,
    folded a chunk at a time: effects are appended to a flat list and
    hashed together when :attr:`CHUNK` of them are in (and once at the
    end).  Addition commutes, so the digests equal the one-at-a-time
    fold; the chunk is bounded, so memory does not grow with the
    run."""

    CHUNK = 1024

    def __init__(self, nclients: int) -> None:
        #: ``client, a, b, c, d`` of each effect, flat.
        self._rows = []
        self._acc = np.zeros(nclients, dtype=np.uint64)
        self._seen = np.zeros(nclients, dtype=bool)

    def add(self, client: int, a: int, b: int, c: int, d: int) -> None:
        rows = self._rows
        rows += (client, a, b, c, d)
        if len(rows) == 5 * self.CHUNK:
            self._flush()

    def _flush(self) -> None:
        rows = np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))
        rows.shape = (-1, 5)
        self._rows = []
        clients = rows[:, 0]
        np.add.at(self._acc, clients, _commute_hash_rows(rows[:, 1:]))
        self._seen[clients] = True

    def finish_into(self, digests: dict) -> None:
        """Fold the partial chunk and write ``{client: digest}`` for
        every client that folded at least one effect."""
        self._flush()
        for client in np.flatnonzero(self._seen):
            digests[int(client)] = int(self._acc[client])


class _TrafficCore:
    """Per-shard traffic state: the clients homed here, their caches
    and connection sets, and this shard's share of the histograms."""

    def __init__(self, ctx: ShardContext, p: TrafficParams) -> None:
        self.ctx = ctx
        self.p = p
        self.sim = ctx.sim
        self.wire = ShardWire(MACHINES[p.machine], p.nnodes, ctx)
        self.t = self.wire.t
        fam = StreamFamily(p.seed, "kv-traffic")
        self.fam = fam
        self.zipf = ZipfianKeys(p.nkeys, p.zipf_s)
        self.arrivals = PoissonArrivals(p.mean_gap_us)
        #: Published empty, as are the counts they give, and filled at
        #: finish from the two lists replies count in (hits, misses).
        self.hist = np.zeros(HIST_BINS, dtype=np.int64)
        self.hist_hit = np.zeros(HIST_BINS, dtype=np.int64)
        self.hist_miss = np.zeros(HIST_BINS, dtype=np.int64)
        self._hits = [0] * HIST_BINS
        self._misses = [0] * HIST_BINS
        self.counts = {"requests": 0, "hits": 0, "misses": 0,
                       "conns": 0, "puts": 0, "gets": 0,
                       "failures": 0}
        self.digests = {}
        self._fold = _DigestFold(p.nclients)
        ctx.at_finish(self._finish)
        #: Lossy-fabric plane: a fault plan's link rules plus an
        #: optional repair policy observing per-link health.  All three
        #: stay ``None`` on a healthy fabric so the pre-fault code path
        #: (and its bit-exact digests) is untouched.
        self.plan = (FaultPlan.from_json(p.fault_plan)
                     if p.fault_plan else None)
        if self.plan is not None and self.plan.empty:
            self.plan = None
        self.health = None
        self.policy = None
        if p.repair_policy and self.plan is None:
            raise ValueError(
                "repair_policy needs a fault plan to observe — "
                "set fault_plan too")
        if self.plan is not None:
            check_fault_plan(self.plan)
            pcfg = PolicyConfig()
            self.health = HealthTracker(pcfg.window_us)
            if p.repair_policy:
                self.policy = PolicyEngine(
                    p.repair_policy, pcfg, self.health,
                    nnodes=p.nnodes, on_decision=self._on_decision)
        #: Streaming SLO monitor (pure bookkeeping — never schedules
        #: sim events, so enabling it leaves runs bit-identical).
        self.slo = (SLOMonitor(p.slo_target_us, p.slo_window_us)
                    if p.slo_target_us > 0 else None)
        #: Outstanding requests per client node (gauge fed to the SLO
        #: monitor; maintained only when it exists).  Keyed by *node*,
        #: not shard: a node's clients and their replies always live on
        #: one shard, so the gauge is layout-invariant.
        self.inflight = {}
        #: Flight recorder + pending (client, seq) -> op-id map for
        #: request spans; populated only when recording is on, and
        #: never rides in message payloads.
        self.log = ctx.log
        self._ops = {}
        self._am_extra = (self.wire.service_us
                          + _KV_SCAN_US * p.slots_per_bucket)
        for client in range(p.nclients):
            node = client % p.nnodes
            if node in self.wire.nodes:
                ctx.spawn(self.client(client, node),
                          name=f"kv-client{client}")

    def _finish(self) -> None:
        """Publish the histograms, their counts and the digests."""
        self.hist_hit[:], self.hist_miss[:] = self._hits, self._misses
        self.hist[:] = self.hist_hit + self.hist_miss
        c = self.counts
        c["hits"], c["misses"] = sum(self._hits), sum(self._misses)
        c["requests"] = c["hits"] + c["misses"]
        c["gets"] = c["requests"] - c["puts"]
        self._fold.finish_into(self.digests)

    # -- client (open loop; never blocks on a reply) -------------------

    def client(self, client: int, node: int):
        p, sim, wire = self.p, self.sim, self.wire
        n = p.per_client()
        stream = ClientStream(self.fam, client, n, self.arrivals,
                              self.zipf, p.put_frac)
        nbuckets, nnodes, capacity = p.nbuckets, p.nnodes, p.cache_capacity
        #: Bucket-address LRU: dict insertion order is the recency list.
        cache = {}
        connected = set()
        send_us = self.t.o_sw_us + self.t.o_send_us
        slo, log, healthy = self.slo, self.log, self.plan is None
        now = 0.0
        seq = -1
        for _ in range(0, n, stream.CHUNK):
            for at, key, is_put in zip(*map(memoryview, stream.take())):
                yield at - now
                now = at
                seq += 1
                bucket = key % nbuckets
                server = bucket % nnodes
                extra = send_us
                if server not in connected:
                    connected.add(server)
                    self.counts["conns"] += 1
                    # Persistent-connection setup: one extra round trip
                    # folded into this first request's latency.
                    extra += (2 * wire.latency(node, server, _CONN_BYTES)
                              + _CONN_SETUP_US)
                hit = cache.pop(bucket, False)
                cache[bucket] = True
                if not hit and len(cache) > capacity:
                    del cache[next(iter(cache))]
                req_bytes = _PUT_REQ_BYTES if is_put else _GET_REQ_BYTES
                if slo is not None:
                    self.inflight[node] = self.inflight.get(node, 0) + 1
                if log.enabled:
                    op = log.next_op_id()
                    log.emit(sim.now, OP_BEGIN, op=op, thread=client,
                             node=node, name="kv_req", key=key, hit=hit,
                             put=is_put, nbytes=req_bytes)
                    self._ops[(client, seq)] = op
                if healthy:
                    # The stamp is _tq(sim.now), written out; ``at``
                    # can differ from the clock in the last bit.
                    wire.send(node, server, "kv_req",
                              (server, node, client, seq, hit, is_put,
                               round(sim.now * 1e6)), req_bytes, extra)
                else:
                    self._issue_traced(client, node, seq, server, hit,
                                       is_put, req_bytes, extra)

    # -- lossy-fabric issue path ---------------------------------------

    def _issue_traced(self, client: int, node: int, seq: int,
                      server: int, hit: bool, is_put: bool,
                      req_bytes: int, extra: float) -> None:
        """Issue one request under the fault plan: plan the whole
        retransmit chain now, as a pure function of (plan seed, client,
        seq, attempt) hash draws and the policy's mode at each attempt
        instant — no RNG state, no reply-time feedback — so the fate
        sequence and every policy decision are bit-identical across
        shard layouts.  Only the surviving attempt crosses the shard
        boundary (its latency includes all the waiting, so it is never
        below the topology lookahead)."""
        t0 = self.sim.now
        plan = self.plan
        eng = self.policy
        seed = plan.seed
        attempt = 0
        t_try = t0
        failed = False
        mode = None
        d_req = d_rep = 0.0
        while True:
            mode = (eng.mode_of(node, server, t_try, horizon=t0)
                    if eng is not None else None)
            detoured = (mode is not None and mode.mode == "disabled"
                        and mode.via is not None)
            if detoured:
                # Traffic no longer crosses the sick segment: no loss,
                # no link delay — the detour's cost is wire distance.
                dropped = False
                d_req = d_rep = 0.0
            else:
                d_req = plan.link_at(node, server, t_try)[2]
                d_rep = plan.link_at(server, node, t_try)[2]
                dropped = (
                    fate_u01(seed, client, seq, attempt, 0)
                    < plan.drop_prob(node, server, t_try)
                    or fate_u01(seed, client, seq, attempt, 1)
                    < plan.drop_prob(server, node, t_try))
            if self.health is not None:
                self.health.record(
                    t_try, node, server, attempts=1,
                    timeouts=1 if dropped else 0,
                    deliveries=0 if dropped else 1)
            if not dropped:
                break
            tscale = mode.timeout_scale if mode is not None else 1.0
            bscale = mode.backoff_scale if mode is not None else 1.0
            timeout = _RETRANSMIT.am_timeout_us * tscale
            if self.health is not None:
                self.health.record(t_try + timeout, node, server,
                                   retries=1)
            if attempt >= _RETRANSMIT.max_retries:
                failed = True
                break
            t_try = (t_try + timeout
                     + _RETRANSMIT.backoff_us(attempt) * bscale)
            attempt += 1
        # Fold the fate chain into the digest so replay bit-identity
        # covers retries and exhausted requests, not just completions.
        self._fold.add(client, seq, attempt, failed, _FATE_SALT)
        if failed:
            self.counts["failures"] += 1
            if self.slo is not None:
                self.inflight[node] = self.inflight.get(node, 0) - 1
            if self.log.enabled:
                op = self._ops.pop((client, seq), -1)
                if op >= 0:
                    self.log.emit(self.sim.now, OP_END, op=op,
                                  thread=client, node=node,
                                  failed=True, attempts=attempt + 1)
            return
        failover = mode is not None and mode.mode == "failover"
        onesided = hit and not failover
        service = 0.0 if onesided else self._am_extra
        if is_put:
            service += _PUT_EXTRA_US
        if attempt and onesided:
            service += attempt * _ONESIDED_RETRY_PENALTY_US
        det_req = det_rep = 0.0
        if (mode is not None and mode.mode == "disabled"
                and mode.via is not None):
            via = mode.via
            lat = self.wire.topo.latency
            det_req = max(0.0, lat(node, via) + lat(via, server)
                          - lat(node, server))
            det_rep = max(0.0, lat(server, via) + lat(via, node)
                          - lat(server, node))
        self.ctx.send(
            self.wire.shard_of[server], "kv_treq",
            (server, node, client, seq, hit, is_put, _tq(t0),
             service + d_rep + det_rep),
            latency=((t_try - t0)
                     + self.wire.latency(node, server, req_bytes,
                                         extra + d_req + det_req)),
            nbytes=req_bytes)

    def _on_decision(self, decision: dict) -> None:
        """Policy decision hook: feed the SLO monitor's per-window
        action counter and the flight recorder.  Decisions fire during
        issue-time ``mode_of`` folds on the link's owning shard, so
        both observations are layout-invariant."""
        if self.slo is not None:
            self.slo.observe_policy_action(decision["t_us"])
        if self.log.enabled:
            self.log.emit(self.sim.now, POLICY_ACTION,
                          node=decision["src"], dst=decision["dst"],
                          action=decision["action"],
                          mode=decision["mode"],
                          t_us=decision["t_us"],
                          policy=decision["policy"])

    # -- handlers (instantaneous; costs ride in reply latency) ---------

    def handle_req(self, payload) -> None:
        server, node, client, seq, hit, is_put, t0 = payload
        service = 0.0 if hit else self._am_extra
        if is_put:
            service += _PUT_EXTRA_US
        rep_bytes = _PUT_REP_BYTES if is_put else _GET_REP_BYTES
        self.wire.send(server, node, "kv_rep",
                       (client, seq, hit, is_put, t0), rep_bytes, service)

    def handle_treq(self, payload) -> None:
        """Traced-path request: the client planned the retransmit chain
        and pre-folded service + link delay + detour into ``svc``; the
        reply rides the ordinary ``kv_rep`` path."""
        server, node, client, seq, hit, is_put, t0, svc = payload
        rep_bytes = _PUT_REP_BYTES if is_put else _GET_REP_BYTES
        self.wire.send(server, node, "kv_rep",
                       (client, seq, hit, is_put, t0), rep_bytes, svc)

    def handle_rep(self, payload) -> None:
        client, seq, hit, is_put, t0 = payload
        fct = self.sim.now + self.t.o_recv_us - t0 / 1e6
        (self._hits if hit else self._misses)[bin_of(fct)] += 1
        if is_put:
            self.counts["puts"] += 1
        # The last word is _tq(fct), written out.
        self._fold.add(client, seq, hit, is_put, round(fct * 1e6))
        if self.slo is not None:
            node = client % self.p.nnodes
            infl = self.inflight.get(node, 0)
            self.inflight[node] = infl - 1
            self.slo.observe(self.sim.now, fct, hit=hit, inflight=infl)
        if self.log.enabled:
            op = self._ops.pop((client, seq), -1)
            if op >= 0:
                self.log.emit(self.sim.now, OP_END, op=op,
                              thread=client, node=client % self.p.nnodes,
                              fct_us=fct, hit=hit, put=is_put)


def build_traffic_shard(ctx: ShardContext, params: dict) -> None:
    """Shard-program builder: one :class:`_TrafficCore` per shard."""
    core = _TrafficCore(ctx, TrafficParams(**params))
    ctx.on_message("kv_req", core.handle_req)
    ctx.on_message("kv_treq", core.handle_treq)
    ctx.on_message("kv_rep", core.handle_rep)
    ctx.publish("hist", core.hist)
    ctx.publish("hist_hit", core.hist_hit)
    ctx.publish("hist_miss", core.hist_miss)
    ctx.publish("counts", core.counts)
    ctx.publish("digests", core.digests)
    # The monitor itself is the output: its final window state.
    ctx.publish("slo", core.slo)
    # Lossy-fabric outputs.  Each link's health and decisions live
    # wholly on its source node's shard, so the merges (commutative
    # counter sums, a summed-hash digest) are layout-invariant.  The
    # decisions list is mutated in place, so publishing it now is
    # publishing the final one.
    ctx.publish("links", core.health)
    ctx.publish("decisions",
                core.policy.decisions if core.policy else None)


def run_kv_traffic(params: TrafficParams, nshards: int = 1, *,
                   mode: str = "inproc", trace: bool = False,
                   trace_max_events=None) -> TrafficResult:
    """Run one traffic experiment under ``nshards`` shards and merge
    the per-shard outputs into a layout-invariant result.

    With ``params.slo_target_us > 0`` the result's ``extra["slo"]``
    carries merged SLO windows, the run summary and anomaly flags;
    ``trace=True`` arms the per-shard flight recorders (packed events
    land on ``extra["run"].shard_events``).  Both are layout-invariant
    and leave the simulation bit-identical.

    ``mode`` is ``"inproc"`` or ``"mp"``, and both run every shard in
    this process: the sharded core has one backend since its worker
    processes went, and ``"mp"`` is still accepted because the frozen
    ``shard_traffic`` benchmark passes it."""
    if mode not in ("inproc", "mp"):
        raise ValueError(f"unknown shard backend {mode!r}")
    run = run_sharded(build_traffic_shard,
                      dict(params=params.__dict__.copy()),
                      MACHINES[params.machine], params.nnodes, nshards,
                      trace=trace, trace_max_events=trace_max_events)
    hist, hist_hit, hist_miss = (sum(out[k] for out in run.outputs)
                                 for k in ("hist", "hist_hit", "hist_miss"))
    counts = {"requests": 0, "hits": 0, "misses": 0, "conns": 0,
              "puts": 0, "gets": 0, "failures": 0}
    digests = {}
    monitors = []
    link_batches = []
    decisions = []
    have_policy = False
    for out in run.outputs:
        for k in counts:
            counts[k] += out["counts"][k]
        digests.update(out["digests"])
        if out.get("slo") is not None:
            monitors.append(out["slo"])
        if out.get("links") is not None:
            link_batches.append(out["links"].link_totals())
        if out.get("decisions") is not None:
            have_policy = True
            decisions.extend(out["decisions"])
    extra = {"run": run}
    if link_batches:
        extra["links"] = HealthTracker.merge_totals(link_batches)
    if have_policy:
        decisions.sort(key=lambda d: (d["t_us"], d["src"], d["dst"],
                                      d["action"]))
        extra["policy"] = {
            "name": params.repair_policy,
            "decisions": decisions,
            "digest": decisions_digest(decisions),
        }
    if monitors:
        windows = SLOMonitor.merge_window_dicts(
            [mon.export() for mon in monitors])
        extra["slo"] = {
            "target_us": params.slo_target_us,
            "window_us": params.slo_window_us,
            "windows": windows,
            "summary": slo_summary(windows,
                                   target_us=params.slo_target_us,
                                   window_us=params.slo_window_us),
            "anomalies": detect_anomalies(
                windows, target_us=params.slo_target_us,
                window_us=params.slo_window_us),
        }
    return TrafficResult(
        requests=counts["requests"], hits=counts["hits"],
        misses=counts["misses"], conns=counts["conns"],
        puts=counts["puts"], gets=counts["gets"], hist=hist,
        hist_hit=hist_hit, hist_miss=hist_miss, digests=digests,
        now=run.now, events=run.events, extra=extra)
