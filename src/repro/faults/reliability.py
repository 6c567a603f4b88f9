"""Reliability-protocol knobs and data structures.

The transport's recovery protocols (see ``docs/FAULTS.md``) are built
from three pieces kept deliberately free of simulator dependencies so
they unit-test in isolation:

* :class:`ReliabilityConfig` — initiator-side retransmit/completion
  timeouts and a capped exponential backoff schedule.  The schedule is
  a pure function of the attempt number: determinism of the recovery
  path reduces to determinism of the fault draws.
* :class:`DedupLedger` — the target-side idempotence ledger.  AM
  requests carry ``(initiator node, sequence number)``; the first
  delivery records the handler's reply under that key, and any replay
  (retransmission after a lost reply, or an injected duplicate) is
  answered from the ledger without re-running the handler — no double
  pin, no double SVD charge, no second piggyback.
* :class:`ReliabilityError` — raised by the initiator once the retry
  budget is exhausted; it propagates out of ``Runtime.run`` like any
  program error so a partitioned fabric fails loudly, never silently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class ReliabilityError(RuntimeError):
    """Retry budget exhausted — the fabric is effectively partitioned.

    Carries the offending ``(src, dst)`` link, the attempt count, and
    the op id as structured attributes so a policy misfire is
    triageable straight from the exception (or the matching ``retry``
    flight-recorder event) without parsing the message.
    """

    def __init__(self, message: str, *, src: Optional[int] = None,
                 dst: Optional[int] = None,
                 attempts: Optional[int] = None,
                 op_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.attempts = attempts
        self.op_id = op_id

    @property
    def link(self) -> Optional[Tuple[int, int]]:
        if self.src is None or self.dst is None:
            return None
        return (self.src, self.dst)


@dataclass(frozen=True)
class ReliabilityConfig:
    """Timeout and backoff knobs, in virtual microseconds.

    Defaults are sized against the modeled machines: a remote AM GET
    round trip costs ~10–20 µs on GM/LAPI, an RDMA read ~5–10 µs, so
    the timers fire comfortably after a healthy op would have finished
    yet fast enough that a retry storm stays visible in short runs.
    """

    #: Retransmit timer for AM request/reply round trips.
    am_timeout_us: float = 60.0
    #: Completion timer for one-sided RDMA reads/writes.
    rdma_timeout_us: float = 40.0
    #: Retransmissions after the first attempt before giving up.
    max_retries: int = 24
    #: Backoff after the k-th timeout: min(cap, base * factor**k).
    backoff_base_us: float = 4.0
    backoff_factor: float = 2.0
    backoff_max_us: float = 128.0
    #: Entries the target-side dedup ledger retains (FIFO eviction).
    ledger_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.am_timeout_us <= 0 or self.rdma_timeout_us <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if (self.backoff_base_us < 0 or self.backoff_factor < 1.0
                or self.backoff_max_us < self.backoff_base_us):
            raise ValueError("bad backoff schedule "
                             f"(base={self.backoff_base_us}, "
                             f"factor={self.backoff_factor}, "
                             f"max={self.backoff_max_us})")
        if self.ledger_capacity < 1:
            raise ValueError("ledger_capacity must be >= 1")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt + 1`` (0-based count
        of timeouts already suffered).  Pure and deterministic."""
        return min(self.backoff_max_us,
                   self.backoff_base_us * self.backoff_factor ** attempt)


#: What the ledger stores per request: (reply payload, extra reply
#: bytes) — everything needed to replay the reply without the handler.
LedgerEntry = Tuple[Any, int]


class DedupLedger:
    """Target-side replay ledger keyed by ``(src node, seq)``.

    Bounded FIFO (an :class:`~collections.OrderedDict`): old entries
    age out once ``capacity`` newer requests have been recorded, which
    is safe because an initiator retires its sequence number as soon as
    a reply arrives — only a reply outstanding *right now* can be
    replayed, and those are always among the newest entries.
    """

    __slots__ = ("capacity", "_entries", "hits", "records", "evictions")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ledger capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], LedgerEntry]" = \
            OrderedDict()
        self.hits = 0
        self.records = 0
        self.evictions = 0

    def get(self, key: Tuple[int, int]) -> Optional[LedgerEntry]:
        """Ledger entry for ``key``, or None for a first delivery."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def record(self, key: Tuple[int, int], payload: Any,
               extra_bytes: int) -> None:
        """Remember the reply for ``key`` (idempotent re-record keeps
        the first value — a replayed handler never overwrites)."""
        if key in self._entries:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = (payload, extra_bytes)
        self.records += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DedupLedger {len(self._entries)}/{self.capacity} "
                f"hits={self.hits} evictions={self.evictions}>")
