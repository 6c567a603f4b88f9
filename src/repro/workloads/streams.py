"""Open-loop request streams of the KV traffic model.

A traffic client (:mod:`repro.workloads.kv_traffic`) fires requests at
Poisson arrival instants, with Zipfian keys, and a fixed fraction of
them are PUTs.  Each of the three draws comes from the client's own
entity-keyed stream (:class:`~repro.util.rng.StreamFamily`), so what a
client sends does not depend on the shard layout.

:class:`ClientStream` draws :attr:`ClientStream.CHUNK` requests at a
time instead of a whole run up front: every shard runs in one process,
so whole-run draws would hold every client's run in memory at once.
The chunks are bit-identical to whole-run draws: a numpy ``Generator``
fills consecutive values from the same stream however the calls split
them, and :meth:`PoissonArrivals.schedule` carries the running sum
from one chunk into the next.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import StreamFamily


class ZipfianKeys:
    """Zipf(s) key draws over ``[0, nkeys)`` by inverse-CDF lookup —
    key 0 is the hottest; rank order *is* key order, so rank-frequency
    checks need no sorting."""

    def __init__(self, nkeys: int, s: float) -> None:
        if nkeys < 1:
            raise ValueError("nkeys must be positive")
        self.nkeys = nkeys
        self.s = float(s)
        weights = np.arange(1, nkeys + 1, dtype=np.float64) ** -self.s
        self._cdf = np.cumsum(weights) / weights.sum()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` keys as int64 — a pure function of the generator
        state, so entity-keyed generators give layout-invariant
        streams."""
        return np.searchsorted(self._cdf, rng.random(n),
                               side="right").astype(np.int64)


class PoissonArrivals:
    """Open-loop Poisson arrival process: exponential inter-arrival
    gaps with the given mean (µs)."""

    def __init__(self, mean_gap_us: float) -> None:
        self.mean_gap_us = float(mean_gap_us)
        if not 0.0 < self.mean_gap_us < np.inf:     # NaN fails too
            raise ValueError("mean_gap_us must be finite and > 0, got "
                             f"{mean_gap_us}")

    def gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_gap_us, n)

    def schedule(self, rng: np.random.Generator, n: int,
                 start: float = 0.0) -> np.ndarray:
        """The next ``n`` absolute arrival instants (µs from client
        start) after the instant ``start``.  The sum runs left to right,
        so a schedule drawn in pieces equals one drawn whole."""
        gaps = self.gaps(rng, n)
        gaps[:1] += start
        return np.cumsum(gaps)


class ClientStream:
    """One client's ``n`` requests, drawn :attr:`CHUNK` at a time."""

    CHUNK = 512

    __slots__ = ("arrivals", "keys", "put_frac", "_rngs", "_left",
                 "_last")

    def __init__(self, fam: StreamFamily, client: int, n: int,
                 arrivals: PoissonArrivals, keys: ZipfianKeys,
                 put_frac: float) -> None:
        self.arrivals = arrivals
        self.keys = keys
        self.put_frac = put_frac
        self._rngs = tuple(fam.child(name).rng(client)
                           for name in ("arrivals", "keys", "ops"))
        self._left = n
        self._last = 0.0

    def take(self) -> tuple:
        """The next chunk of at most :attr:`CHUNK` requests: ``(arrival
        instants, keys, is-PUT flags)``, three arrays of one length.
        The last chunk lets the three generators go (about 1 KB each)."""
        arrival_rng, key_rng, op_rng = self._rngs
        n = min(self.CHUNK, self._left)
        self._left -= n
        if not self._left:
            self._rngs = None
        at = self.arrivals.schedule(arrival_rng, n, self._last)
        self._last = at[-1]
        return (at, self.keys.draw(key_rng, n),
                op_rng.random(n) < self.put_frac)
