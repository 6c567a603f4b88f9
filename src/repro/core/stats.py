"""Counters for the remote address cache.

These feed the Figure 8 hit-rate study and the section 6 claim that
"the overhead of unsuccessful attempts to cache remote addresses is
relatively small, typically 1.5% and never worse than 2%".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one node's address cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    updates: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: µs spent on lookups/inserts (the "unsuccessful attempt" cost).
    lookup_time_us: float = 0.0
    insert_time_us: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 before any access."""
        n = self.accesses
        return self.hits / n if n else 0.0

    @property
    def overhead_us(self) -> float:
        """Total bookkeeping time — the cost a cache-miss-heavy run
        pays on top of the uncached baseline."""
        return self.lookup_time_us + self.insert_time_us

    def merge(self, other: "CacheStats") -> None:
        """Fold another node's stats into this aggregate."""
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.updates += other.updates
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        self.lookup_time_us += other.lookup_time_us
        self.insert_time_us += other.insert_time_us
