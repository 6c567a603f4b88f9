"""Deterministic random-number helpers.

Every stochastic component (workload generators, randomized eviction)
derives its generator from an explicit seed so that a cached and an
uncached run of the same experiment see *identical* access patterns —
a precondition for the paper's ``100(Z-W)/Z`` comparisons and for our
functional-equivalence tests.
"""

from __future__ import annotations

import numpy as np

#: Fixed application-level salt so that unrelated components which pass
#: the same small integer seed still decorrelate.
_SALT = 0x5B_D1_E9_95


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for ``(seed, *streams)``.

    ``streams`` identifies a substream (e.g. per-thread, per-repetition)
    so callers never share a generator across simulated threads.
    """
    ss = np.random.SeedSequence([_SALT, seed, *streams])
    return np.random.default_rng(ss)


class StreamFamily:
    """Explicit per-entity stream splitting for sharded execution.

    The sharded PDES core slices a run's nodes across worker processes,
    and the slice boundaries move with the shard count.  Randomness
    must therefore *never* be drawn from a per-shard or per-worker
    generator: the same fault plan or fuzz program has to come out
    bit-identical for ``shards=1/2/4``.  A ``StreamFamily`` makes the
    correct pattern the easy one — derive every generator from stable
    *entity* keys (node id, thread id, repetition) under a fixed scope
    path, so any worker that simulates an entity reconstructs exactly
    the stream that entity would see anywhere else::

        fam = StreamFamily(seed, "fault-plan")
        rng = fam.rng(node_id)           # same stream on any shard

    Scopes nest (``fam.child("arrivals")``) so unrelated components
    sharing a seed stay decorrelated without coordinating offsets.
    """

    __slots__ = ("seed", "scope")

    def __init__(self, seed: int, *scope) -> None:
        self.seed = int(seed)
        self.scope = tuple(_key_to_int(k) for k in scope)

    def child(self, *scope) -> "StreamFamily":
        """A nested family under an extended scope path."""
        fam = StreamFamily.__new__(StreamFamily)
        fam.seed = self.seed
        fam.scope = self.scope + tuple(_key_to_int(k) for k in scope)
        return fam

    def rng(self, *entity) -> np.random.Generator:
        """The generator owned by ``entity`` (e.g. a node id) — a pure
        function of ``(seed, scope, entity)``, independent of which
        shard asks."""
        return seeded_rng(self.seed, *self.scope,
                          *(_key_to_int(k) for k in entity))

    def seed_for(self, *entity) -> int:
        """A stable 63-bit integer seed for ``entity`` — for handing
        to components that take seeds rather than generators."""
        ss = np.random.SeedSequence(
            [_SALT, self.seed, *self.scope,
             *(_key_to_int(k) for k in entity)])
        return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StreamFamily seed={self.seed} scope={self.scope}>"


def _key_to_int(key) -> int:
    """Map a scope/entity key to a stable non-negative int.

    Strings hash via FNV-1a (Python's ``hash`` is salted per process —
    useless across the worker processes the sharded core spawns).
    """
    if isinstance(key, bool):
        raise TypeError("booleans are ambiguous stream keys")
    if isinstance(key, (int, np.integer)):
        return int(key) & (2 ** 63 - 1)
    if isinstance(key, str):
        acc = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            acc = ((acc ^ byte) * 0x100000001B3) & (2 ** 64 - 1)
        return acc >> 1
    raise TypeError(f"stream keys must be int or str, got {type(key)!r}")


def bounded_geometric(rng: np.random.Generator, mean: float,
                      lo: int, hi: int) -> int:
    """A geometric-ish draw clamped to ``[lo, hi]``.

    Size-like quantities (span lengths, op counts) want short draws to
    dominate with a heavy tail of large ones — a plain uniform draw
    buries the small-transfer behaviour the protocols specialize for.
    """
    if hi <= lo:
        return lo
    draw = lo + int(rng.geometric(min(1.0, 1.0 / max(mean, 1.0)))) - 1
    return min(max(draw, lo), hi)
