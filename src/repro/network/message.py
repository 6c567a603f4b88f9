"""Wire-message taxonomy and the optional transport message log.

Every protocol step the transport executes corresponds to a concrete
message on the real wire (Figures 3 and 5): the request-to-send, the
data reply, rendezvous control traffic, RDMA descriptors and DMA
responses, and one-way notifications.  After
``Transport.enable_log()``, each of them is recorded as a
:class:`WireMessage` — a tcpdump for the simulated fabric, used by
tests to assert protocol shapes and by humans to debug them.

Logging is off by default: at 10^5-message scales the log would cost
more than the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

#: Message kinds, following the protocol diagrams.
AM_REQUEST = "am-request"        # Figure 3a RTS / Figure 5 Amsend
AM_REPLY = "am-reply"            # data + piggybacked address
RTS = "rendezvous-rts"
CTS = "rendezvous-cts"
RDV_DATA = "rendezvous-data"
PUT_DATA = "put-data"
RDMA_READ = "rdma-read"          # descriptor to the target NIC
RDMA_READ_RESP = "rdma-read-resp"
RDMA_WRITE = "rdma-write"
ONEWAY = "oneway"                # SVD notifications etc.

KINDS = (AM_REQUEST, AM_REPLY, RTS, CTS, RDV_DATA, PUT_DATA,
         RDMA_READ, RDMA_READ_RESP, RDMA_WRITE, ONEWAY)


@dataclass(frozen=True)
class WireMessage:
    """One message observed on the fabric."""

    kind: str
    src: int
    dst: int
    nbytes: int
    #: Virtual time the message was handed to the source NIC.
    t_inject: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError(f"negative message size {self.nbytes}")


class MessageLog:
    """Bounded in-memory capture of wire messages."""

    __slots__ = ("records", "max_records", "dropped")

    def __init__(self, max_records: Optional[int] = 100_000) -> None:
        self.records: List[WireMessage] = []
        self.max_records = max_records
        self.dropped = 0

    def add(self, msg: WireMessage) -> None:
        if (self.max_records is not None
                and len(self.records) >= self.max_records):
            self.dropped += 1
            return
        self.records.append(msg)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WireMessage]:
        return iter(self.records)

    def by_kind(self, kind: str) -> List[WireMessage]:
        return [m for m in self.records if m.kind == kind]

    def between(self, src: int, dst: int) -> List[WireMessage]:
        return [m for m in self.records
                if m.src == src and m.dst == dst]

    def total_bytes(self) -> int:
        return sum(m.nbytes for m in self.records)

    def summary(self) -> str:
        """Counts and bytes per kind (for debugging output)."""
        counts = {}
        sizes = {}
        for m in self.records:
            counts[m.kind] = counts.get(m.kind, 0) + 1
            sizes[m.kind] = sizes.get(m.kind, 0) + m.nbytes
        lines = [f"{'kind':>18} {'count':>8} {'bytes':>12}"]
        for kind in sorted(counts):
            lines.append(f"{kind:>18} {counts[kind]:>8} {sizes[kind]:>12}")
        if self.dropped:
            lines.append(f"(+{self.dropped} dropped)")
        return "\n".join(lines)
