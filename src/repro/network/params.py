"""Cost-model parameter tables for the two evaluation platforms.

Every field is a knob of a LogGP-flavoured model (Culler et al.) with
protocol extensions: per-message CPU overheads (``o``), NIC injection
gap (``g``), per-byte gap (``G`` = 1/bandwidth), plus the costs the
paper's protocols introduce (SVD lookup, AM handler dispatch, copies,
registration, RDMA setup).

The two concrete instances are calibrated against the paper's
published observations rather than vendor datasheets:

* network round trips "in the 4–8 microsecond range" (section 4.3);
* full XLUPC GET round trips of ~10–20 µs for tiny messages (Fig 7);
* HPS rated bandwidth "8x that of Myrinet" (section 4.3);
* GM small-GET gain ≈ 30 %, LAPI ≈ 16 % (Fig 6 left);
* LAPI PUT regression "up to 200%" caused by "the IBM switching
  hardware, which offers excellent throughput in RDMA mode, at the
  cost of higher latency" (section 4.3);
* LAPI registered-handle cap 32 MB (3.2), GM DMAable cap 1 GB (3.3).

All times are microseconds; sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.memory.pinning import PinCostModel
from repro.util.units import GB, KB, MB, bytes_per_usec

#: Progress-engine flavours (section 4.6 vs 4.7): GM makes progress
#: only when some thread on the node is inside the runtime (polling);
#: LAPI runs header handlers promptly (interrupt/comm-thread driven).
POLLING = "polling"
INTERRUPT = "interrupt"


@dataclass(frozen=True)
class TransportParams:
    """Knobs of one transport's cost model."""

    name: str

    # --- CPU overheads -------------------------------------------------
    #: CPU cost to hand a message to the messaging library (LogP ``o``).
    o_send_us: float
    #: CPU cost to take delivery of a message.
    o_recv_us: float
    #: XLUPC runtime software overhead per remote op (handle checks,
    #: pointer-to-shared arithmetic) — paid on *both* paths.
    o_sw_us: float
    #: Base cost of running an AM header handler (dispatch, not SVD).
    handler_cpu_us: float
    #: SVD handle -> local address translation on the home node
    #: (section 2.2: "translating SVD handles to memory addresses only
    #: at the target node" is the price of the design).
    svd_lookup_us: float

    # --- NIC / wire -----------------------------------------------------
    #: Per-message NIC injection gap (LogGP ``g``).
    nic_gap_us: float
    #: Per-byte serialization time (LogGP ``G`` = 1/bandwidth).
    byte_time_us: float
    #: Per-byte memcpy cost for eager bounce-buffer copies.
    memcpy_byte_us: float
    #: Size of a control message (RTS, CTS, ACK headers).
    ctrl_bytes: int
    #: Eager messages are cut into wire fragments of this size, each
    #: paying the NIC gap again (RDMA segments in hardware instead).
    frag_bytes: int

    # --- protocol thresholds ---------------------------------------------
    #: Largest message sent through the copying eager protocol; above
    #: this the rendezvous (registration-embedded) protocol runs
    #: (section 3.3: "multiple transfer protocols depending on size").
    eager_max_bytes: int
    #: Extra CPU cost of orchestrating a rendezvous handshake.
    rendezvous_cpu_us: float

    # --- RDMA ------------------------------------------------------------
    #: Initiator CPU cost to build + post an RDMA descriptor.
    rdma_init_us: float
    #: Extra one-way latency of RDMA-mode GET on this fabric.
    rdma_get_premium_us: float
    #: Extra one-way latency of RDMA-mode PUT on this fabric.
    rdma_put_premium_us: float
    #: CPU cost to reap an RDMA completion.
    rdma_completion_us: float
    #: True when a PUT only completes locally after the fabric-level
    #: ack returns (HPS behaviour — the root of Fig 6's -200 %);
    #: False when local completion happens at injection (GM).
    rdma_put_waits_remote: bool

    # --- node-local accesses ------------------------------------------------
    #: Cost of a shared access that turns out to be affine to the
    #: calling thread (handle deref + load/store).
    local_access_us: float = 0.08
    #: Cost of a shared access to another UPC thread on the *same*
    #: node — Pthreads share memory directly, no network (section 5).
    shm_access_us: float = 0.35

    #: Whether the fabric exposes one-sided RDMA at all.  TCP/IP
    #: sockets (one of XLUPC's transports, section 2) do not: there
    #: the address cache has nothing to accelerate and the runtime
    #: never takes the fast path.
    supports_rdma: bool = True
    #: Receive-buffer credits per destination node for *eager payload*
    #: messages (GM posts a bounded number of receive buffers; a
    #: sender without credit stalls until an earlier message is
    #: consumed).  RDMA never consumes credits — one more way the
    #: fast path sidesteps the target.
    eager_credits: int = 64

    # --- progress --------------------------------------------------------
    progress: str = POLLING
    #: Handler dispatch cost when a poller is already inside the runtime.
    dispatch_us: float = 0.5
    #: Interrupt pipeline latency (interrupt-mode transports).
    interrupt_us: float = 0.7
    #: How many AM handlers may execute concurrently on one node.
    #: GM serializes everything behind a single port lock (1 — the
    #: "four threads competing for the same network device" effect);
    #: LAPI runs handlers on several of the Power5's cores.
    handler_concurrency: int = 1

    # --- registration ------------------------------------------------------
    pin_cost: PinCostModel = field(default_factory=PinCostModel)
    #: Per-handle registration cap (LAPI: 32 MB); None = unlimited.
    max_pin_region_bytes: Optional[int] = None
    #: Total DMAable memory cap (GM: 1 GB); None = unlimited.
    max_pin_total_bytes: Optional[int] = None
    #: Pin-down cache capacity for rendezvous registrations.
    reg_cache_bytes: int = 256 * MB

    # --- address cache client costs (charged by repro.core) ----------------
    #: Hash lookup in the remote address cache.
    cache_lookup_us: float = 0.10
    #: Insert/update of a piggybacked address.
    cache_insert_us: float = 0.20

    def __post_init__(self) -> None:
        for field_name in ("o_send_us", "o_recv_us", "o_sw_us",
                           "handler_cpu_us", "svd_lookup_us",
                           "nic_gap_us", "memcpy_byte_us",
                           "rendezvous_cpu_us", "rdma_init_us",
                           "rdma_get_premium_us", "rdma_put_premium_us",
                           "rdma_completion_us", "dispatch_us",
                           "interrupt_us", "cache_lookup_us",
                           "cache_insert_us"):
            if getattr(self, field_name) < 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be >= 0")
        if self.byte_time_us <= 0:
            raise ValueError(f"{self.name}: byte_time_us must be > 0")
        if self.ctrl_bytes < 1 or self.frag_bytes < 1:
            raise ValueError(f"{self.name}: message sizing must be >= 1")
        if self.eager_max_bytes < 0:
            raise ValueError(f"{self.name}: eager_max_bytes must be >= 0")
        if self.eager_credits < 1:
            raise ValueError(f"{self.name}: eager_credits must be >= 1")
        if self.handler_concurrency < 1:
            raise ValueError(
                f"{self.name}: handler_concurrency must be >= 1")
        if self.progress not in (POLLING, INTERRUPT):
            raise ValueError(
                f"{self.name}: unknown progress kind {self.progress!r}")

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on this fabric."""
        return nbytes * self.byte_time_us

    def copy_time(self, nbytes: int) -> float:
        """One memcpy of ``nbytes``."""
        return nbytes * self.memcpy_byte_us

    def fragments(self, nbytes: int) -> int:
        """Number of wire fragments for an eager transfer."""
        return max(1, -(-nbytes // self.frag_bytes))

    def with_overrides(self, **kw) -> "TransportParams":
        """A copy with some fields replaced (for ablations)."""
        return replace(self, **kw)


@dataclass(frozen=True)
class MachineParams:
    """A platform = transport params + topology shape + node shape."""

    name: str
    transport: TransportParams
    #: UPC threads co-located per node in hybrid mode (paper: 4 per
    #: MareNostrum blade; up to 16 per Power5 node).
    default_threads_per_node: int
    #: Topology kind consumed by :mod:`repro.network.topology`.
    topology_kind: str
    #: Fixed per-traversal wire latency (NIC + first switch stage).
    wire_base_us: float
    #: Additional latency per switch hop.
    wire_per_hop_us: float
    #: Myrinet crossbar shape (ignored by flat topologies).
    nodes_per_linecard: int = 16
    linecards_per_group: int = 8
    #: Platform default for using RDMA on cache-hit PUTs.  The paper
    #: *disabled* it on LAPI after measuring the Figure 6 regression:
    #: "Following these results, we disabled the address cache for the
    #: PUT operations in LAPI" (section 4.3).
    use_rdma_put_default: bool = True
    #: BlueGene/L has a dedicated combine/broadcast tree network; a
    #: full-machine barrier costs ~1.5 us regardless of node count
    #: (Almási et al. [1]).  0.0 = no such network (use the
    #: dissemination barrier over the data fabric).
    collective_network_barrier_us: float = 0.0


# ---------------------------------------------------------------------------
# MareNostrum: JS21 blades, Myrinet/GM, polling progress (sections 3.3, 4.1).
# ---------------------------------------------------------------------------

GM_TRANSPORT = TransportParams(
    name="gm",
    o_send_us=2.6,
    o_recv_us=2.2,
    o_sw_us=2.4,
    handler_cpu_us=1.0,
    svd_lookup_us=2.0,
    nic_gap_us=0.3,
    byte_time_us=1.0 / bytes_per_usec(250.0),    # ~250 MB/s Myrinet
    memcpy_byte_us=1.0 / bytes_per_usec(1000.0), # ~1 GB/s PPC970 memcpy
    ctrl_bytes=64,
    frag_bytes=4096,
    eager_max_bytes=16 * KB,
    rendezvous_cpu_us=1.5,
    rdma_init_us=1.2,
    rdma_get_premium_us=3.5,   # gm_get on GM is noticeably slower than
    rdma_put_premium_us=0.3,   # gm_directed_send (one-sided read RTT)
    rdma_completion_us=1.2,
    rdma_put_waits_remote=False,
    progress=POLLING,
    dispatch_us=1.0,
    max_pin_region_bytes=None,
    max_pin_total_bytes=1 * GB,          # GM DMAable limit, section 3.3
    reg_cache_bytes=256 * MB,
)

GM_MARENOSTRUM = MachineParams(
    name="marenostrum-gm",
    transport=GM_TRANSPORT,
    default_threads_per_node=4,          # two dual-core PPC 970MP
    topology_kind="myrinet-clos",
    wire_base_us=1.6,                    # NIC traversal each way
    wire_per_hop_us=0.4,                 # 1/3/5-hop crossbar routes
    nodes_per_linecard=16,
    linecards_per_group=8,
)

# ---------------------------------------------------------------------------
# Power5 cluster: HPS switch, LAPI, interrupt progress (sections 3.2, 4.2).
# ---------------------------------------------------------------------------

LAPI_TRANSPORT = TransportParams(
    name="lapi",
    o_send_us=1.4,
    o_recv_us=1.2,
    o_sw_us=1.0,
    handler_cpu_us=0.9,
    svd_lookup_us=1.3,
    nic_gap_us=0.2,
    byte_time_us=1.0 / bytes_per_usec(2000.0),   # HPS ~8x Myrinet
    memcpy_byte_us=1.0 / bytes_per_usec(6000.0), # Power5 memcpy
    ctrl_bytes=64,
    frag_bytes=16 * KB,
    eager_max_bytes=1 * MB,
    rendezvous_cpu_us=1.2,
    rdma_init_us=1.0,
    rdma_get_premium_us=3.4,   # "excellent throughput ... at the cost of
    rdma_put_premium_us=2.8,   #  higher latency" (section 4.3)
    rdma_completion_us=0.5,
    rdma_put_waits_remote=True,
    progress=INTERRUPT,
    interrupt_us=0.7,
    handler_concurrency=4,
    max_pin_region_bytes=32 * MB,        # LAPI handle cap, section 3.2
    max_pin_total_bytes=None,
    reg_cache_bytes=512 * MB,
)

LAPI_POWER5 = MachineParams(
    name="power5-lapi",
    transport=LAPI_TRANSPORT,
    default_threads_per_node=16,         # 8 two-way SMT Power5 cores
    topology_kind="hps",
    wire_base_us=1.5,
    wire_per_hop_us=0.1,
    use_rdma_put_default=False,          # section 4.3's final config
)

# ---------------------------------------------------------------------------
# TCP/IP sockets transport (section 2: one of XLUPC's implemented
# messaging methods).  A two-sided commodity path with kernel-crossing
# overheads and NO one-sided operations — the negative control: the
# address cache cannot help here because there is no RDMA to unlock.
# ---------------------------------------------------------------------------

TCP_TRANSPORT = TransportParams(
    name="tcp",
    o_send_us=6.0,            # syscall + TCP/IP stack per send
    o_recv_us=6.0,
    o_sw_us=2.4,
    handler_cpu_us=1.5,
    svd_lookup_us=2.0,
    nic_gap_us=0.5,
    byte_time_us=1.0 / bytes_per_usec(110.0),    # ~gigabit ethernet
    memcpy_byte_us=1.0 / bytes_per_usec(1000.0),
    ctrl_bytes=64,
    frag_bytes=1448,          # MSS-sized segments
    eager_max_bytes=64 * KB,
    rendezvous_cpu_us=3.0,
    rdma_init_us=0.0,
    rdma_get_premium_us=0.0,
    rdma_put_premium_us=0.0,
    rdma_completion_us=0.0,
    rdma_put_waits_remote=False,
    supports_rdma=False,
    progress=INTERRUPT,       # the kernel delivers regardless of polls
    interrupt_us=4.0,         # softirq + wakeup
    reg_cache_bytes=256 * MB,
)

TCP_CLUSTER = MachineParams(
    name="tcp-cluster",
    transport=TCP_TRANSPORT,
    default_threads_per_node=4,
    topology_kind="flat",
    wire_base_us=18.0,        # switched-ethernet one-way latency
    wire_per_hop_us=2.0,
    use_rdma_put_default=False,
)

# ---------------------------------------------------------------------------
# BlueGene/L messaging framework (section 2, citing [1]): the machine
# on which the SVD design "has been demonstrated to scale to hundreds
# of thousands of threads" [8].  3-D torus, very low per-hop latency,
# lean cores, remote-DMA-capable torus packets.
# ---------------------------------------------------------------------------

BGL_TRANSPORT = TransportParams(
    name="bgl",
    o_send_us=1.0,            # lean 700 MHz cores, simple kernel
    o_recv_us=1.0,
    o_sw_us=1.6,
    handler_cpu_us=0.9,
    svd_lookup_us=1.8,
    nic_gap_us=0.1,
    byte_time_us=1.0 / bytes_per_usec(150.0),    # per-link payload b/w
    memcpy_byte_us=1.0 / bytes_per_usec(700.0),
    ctrl_bytes=32,
    frag_bytes=240,           # torus packets are 256 B with headers
    eager_max_bytes=8 * KB,
    rendezvous_cpu_us=1.0,
    rdma_init_us=0.8,
    rdma_get_premium_us=0.6,
    rdma_put_premium_us=0.4,
    rdma_completion_us=0.4,
    rdma_put_waits_remote=False,
    progress=POLLING,         # CNK polls the torus FIFOs
    dispatch_us=0.4,
    handler_concurrency=1,
    reg_cache_bytes=128 * MB,
)

BGL_TORUS = MachineParams(
    name="bluegene-l",
    transport=BGL_TRANSPORT,
    default_threads_per_node=2,   # coprocessor/virtual-node modes
    topology_kind="torus3d",
    wire_base_us=0.6,
    wire_per_hop_us=0.1,          # ~100 ns per torus hop
    collective_network_barrier_us=1.5,  # the dedicated tree network
)

#: Registry used by CLIs/benchmarks to select a platform by name.
MACHINES = {
    GM_MARENOSTRUM.name: GM_MARENOSTRUM,
    LAPI_POWER5.name: LAPI_POWER5,
    TCP_CLUSTER.name: TCP_CLUSTER,
    BGL_TORUS.name: BGL_TORUS,
    "gm": GM_MARENOSTRUM,
    "lapi": LAPI_POWER5,
    "tcp": TCP_CLUSTER,
    "bgl": BGL_TORUS,
}
