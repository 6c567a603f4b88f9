"""Seeded op-sequence generator.

Draws random :class:`~repro.testing.program.Program`s — alloc/free
churn, scalar and bulk data movement, vectored ops, gathers, strict
and relaxed puts, fences, split-phase barriers, value collectives,
lock-protected read-modify-writes and pointer walks — while enforcing
the race-freedom discipline the differential oracle requires (see
:mod:`repro.testing.program`).

Everything derives from :func:`repro.util.rng.seeded_rng`, so a
``(seed, n_ops, nthreads)`` triple names one program forever: the
corpus stores shrunk JSON programs, but a bare seed is already a
complete reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.testing.program import (
    DTYPES,
    LockDecl,
    Op,
    Phase,
    Program,
    ScalarDecl,
    validate,
)
from repro.util.rng import bounded_geometric, seeded_rng

#: Per-thread op kinds and their draw weights.  Reads dominate (they
#: are the checked ops); the alloc/free churn that stresses the cache
#: invalidation path is driven separately at the phase level.
_OP_WEIGHTS = [
    ("get", 14), ("put", 10), ("put_strict", 3),
    ("memget", 8), ("memput", 6), ("memget_v", 4), ("memput_v", 3),
    ("gather", 5), ("fence", 4), ("compute", 4), ("poll", 1),
    ("lock_add", 4), ("ptr_walk", 4),
    ("get_rc", 3), ("put_rc", 2), ("memget_row", 2),
    ("global_alloc", 1), ("local_alloc", 1),
]

_COLLECTIVE_WEIGHTS = [
    ("barrier", 10), ("split_barrier", 3), ("all_reduce", 3),
    ("broadcast", 2), ("alloc", 4), ("alloc_matrix", 2), ("free", 4),
]

#: Extra draws mixed in when kv-store fuzzing is enabled (kv ops ride
#: along with the full alloc/free churn above — that interleaving is
#: the point: store traffic while the address caches are being churned
#: by unrelated allocation lifecycles).
_KV_OP_WEIGHTS = [
    ("kv_get", 10), ("kv_put", 8), ("kv_del", 4), ("kv_mget", 5),
]

_KV_COLLECTIVE_WEIGHTS = [
    ("kv_create", 3), ("kv_free", 2),
]


@dataclass
class _Obj:
    """Generator-side bookkeeping for one live shared object."""

    obj: int
    kind: str                  # "array" | "matrix" | "scalar"
    nelems: int
    dtype: str
    blocksize: int = 0
    rows: int = 0
    cols: int = 0
    tile_r: int = 0
    tile_c: int = 0
    #: None = visible to all threads; else the allocating thread only.
    visible_to: Optional[int] = None
    #: Element state this phase: -1 clean, -2 lock-touched, else the
    #: writer thread; ``fenced`` marks drained self-writes; ``readers``
    #: is a bitmask of threads that read the element this phase (a
    #: same-phase read and write by different threads race in *both*
    #: draw orders, since the ops run concurrently).
    writer: np.ndarray = None  # type: ignore[assignment]
    fenced: np.ndarray = None  # type: ignore[assignment]
    readers: np.ndarray = None  # type: ignore[assignment]
    #: Lock guarding each element's RMWs this phase (-1 none): two
    #: lock_adds under *different* locks interleave their get/put.
    lockid: np.ndarray = None  # type: ignore[assignment]
    #: kv stores only (``kind == "kv"``, where ``nelems`` counts
    #: buckets): slots per bucket, access path, stripe lock id, the
    #: live-key set per bucket (capacity tracking mirrors the
    #: validator's), and the key universe draws come from.
    slots: int = 0
    access: str = ""
    lock: int = -1
    key_max: int = 0
    keysets: Optional[List[set]] = None

    def __post_init__(self) -> None:
        self.writer = np.full(self.nelems, -1, dtype=np.int64)
        self.fenced = np.zeros(self.nelems, dtype=bool)
        self.readers = np.zeros(self.nelems, dtype=np.int64)
        self.lockid = np.full(self.nelems, -1, dtype=np.int64)
        if self.kind == "kv":
            self.keysets = [set() for _ in range(self.nelems)]

    def live_keys(self) -> List[int]:
        return sorted(k for ks in self.keysets or () for k in ks)

    def readable(self, t: int) -> np.ndarray:
        return (self.writer == -1) | ((self.writer == t) & self.fenced)

    def mark_read(self, t: int, start: int, count: int = 1) -> None:
        self.readers[start:start + count] |= np.int64(1 << t)

    def writable(self, t: int) -> np.ndarray:
        return self.readable(t) & ((self.readers & ~np.int64(1 << t)) == 0)

    def lockable(self, lock: int = -1) -> np.ndarray:
        base = (((self.writer == -1) | (self.writer == -2))
                & (self.readers == 0))
        if lock < 0:
            return base
        return base & ((self.lockid == -1) | (self.lockid == lock))

    def clear(self) -> None:
        self.writer[:] = -1
        self.fenced[:] = False
        self.readers[:] = 0
        self.lockid[:] = -1
        self.visible_to = None


class ProgramGenerator:
    """Stateful builder for one random program."""

    def __init__(self, seed: int, nthreads: int = 4,
                 max_live_objects: int = 5,
                 max_elems: int = 192, kv: bool = False) -> None:
        if nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        self.rng = seeded_rng(seed, 0xF022)
        self.seed = seed
        self.nthreads = nthreads
        self.max_live = max_live_objects
        self.max_elems = max_elems
        #: kv-store fuzzing is opt-in so the seed-indexed corpus of
        #: pre-service programs keeps naming the same programs forever.
        self.kv = kv
        self._op_weights = (_OP_WEIGHTS + _KV_OP_WEIGHTS if kv
                            else _OP_WEIGHTS)
        self._collective_weights = (
            _COLLECTIVE_WEIGHTS + _KV_COLLECTIVE_WEIGHTS if kv
            else _COLLECTIVE_WEIGHTS)
        self._next_obj = 0
        self.objs: Dict[int, _Obj] = {}
        self.locks: List[LockDecl] = []
        self.scalars: List[ScalarDecl] = []
        self.phases: List[Phase] = []
        self._ops_emitted = 0

    # -- small draws ------------------------------------------------------

    def _weighted(self, table) -> str:
        kinds = [k for k, _ in table]
        w = np.array([w for _, w in table], dtype=float)
        return kinds[int(self.rng.choice(len(kinds), p=w / w.sum()))]

    def _fresh_obj_id(self) -> int:
        self._next_obj += 1
        return self._next_obj - 1

    def _values(self, dtype: str, n: int) -> list:
        """Small exact values (ints even for f8: bit-exact everywhere)."""
        vals = self.rng.integers(0, 1000, size=n)
        if dtype == "f8":
            return [float(v) for v in vals]
        return [int(v) for v in vals]

    def _pick_obj(self, thread: int, kinds=("array", "matrix",
                                            "scalar")) -> Optional[_Obj]:
        cands = [o for o in self.objs.values()
                 if o.kind in kinds
                 and (o.visible_to is None or o.visible_to == thread)]
        if not cands:
            return None
        return cands[int(self.rng.integers(len(cands)))]

    def _pick_span(self, mask: np.ndarray, want: int
                   ) -> Optional[Tuple[int, int]]:
        """A (start, count<=want) span of all-True ``mask`` cells, or
        None.  Samples a few random starts, then falls back to the
        first admissible cell."""
        n = len(mask)
        for _ in range(6):
            start = int(self.rng.integers(n))
            if not mask[start]:
                continue
            end = start
            while end < n and end - start < want and mask[end]:
                end += 1
            return start, end - start
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            return None
        return int(idx[0]), 1

    # -- object creation ---------------------------------------------------

    def _decl_statics(self) -> None:
        for _ in range(int(self.rng.integers(1, 3))):
            self.locks.append(LockDecl(
                obj=self._fresh_obj_id(),
                owner_thread=int(self.rng.integers(self.nthreads))))
        for _ in range(int(self.rng.integers(1, 3))):
            obj = self._fresh_obj_id()
            dtype = str(self.rng.choice(DTYPES))
            self.scalars.append(ScalarDecl(
                obj=obj, owner_thread=int(self.rng.integers(self.nthreads)),
                dtype=dtype))
            self.objs[obj] = _Obj(obj=obj, kind="scalar", nelems=1,
                                  dtype=dtype)

    def _alloc_args(self) -> Tuple[int, dict]:
        obj = self._fresh_obj_id()
        nelems = int(bounded_geometric(self.rng, 48, 8, self.max_elems))
        # Small blocks force affinity splits; None-ish big blocks keep
        # some arrays purely blocked.
        blocksize = int(self.rng.choice([2, 4, 8, 16,
                                         max(1, nelems // self.nthreads)]))
        dtype = str(self.rng.choice(DTYPES))
        return obj, {"nelems": nelems, "blocksize": blocksize,
                     "dtype": dtype}

    def _alloc_matrix_args(self) -> Tuple[int, dict]:
        obj = self._fresh_obj_id()
        tile_r = int(self.rng.choice([1, 2, 4]))
        tile_c = int(self.rng.choice([2, 4]))
        rows = tile_r * int(self.rng.integers(2, 5))
        cols = tile_c * int(self.rng.integers(2, 5))
        dtype = str(self.rng.choice(DTYPES))
        return obj, {"rows": rows, "cols": cols, "tile_r": tile_r,
                     "tile_c": tile_c, "dtype": dtype}

    def _register(self, obj: int, kind: str, args: dict,
                  visible_to: Optional[int] = None) -> None:
        if kind == "matrix":
            self.objs[obj] = _Obj(
                obj=obj, kind="matrix",
                nelems=args["rows"] * args["cols"], dtype=args["dtype"],
                blocksize=args["tile_r"] * args["tile_c"],
                rows=args["rows"], cols=args["cols"],
                tile_r=args["tile_r"], tile_c=args["tile_c"],
                visible_to=visible_to)
        else:
            self.objs[obj] = _Obj(
                obj=obj, kind="array", nelems=args["nelems"],
                dtype=args["dtype"],
                blocksize=args.get("blocksize") or args["nelems"],
                visible_to=visible_to)

    # -- per-thread op draws -----------------------------------------------

    def _draw_thread_op(self, t: int) -> Optional[Op]:
        kind = self._weighted(self._op_weights)
        rng = self.rng
        if kind in ("kv_get", "kv_put", "kv_del", "kv_mget"):
            o = self._pick_obj(t, kinds=("kv",))
            if o is None:
                return None
            return self._draw_kv_op(t, o, kind)
        if kind == "fence":
            for o in self.objs.values():
                o.fenced[o.writer == t] = True
            return Op("fence", thread=t)
        if kind == "compute":
            return Op("compute", thread=t,
                      args={"usec": int(rng.integers(1, 30))})
        if kind == "poll":
            return Op("poll", thread=t)
        if kind in ("global_alloc", "local_alloc"):
            if len(self.objs) >= self.max_live + len(self.scalars):
                return None
            obj, args = self._alloc_args()
            if kind == "local_alloc":
                args.pop("blocksize")
            self._register(obj, "array", args, visible_to=t)
            return Op(kind, thread=t, obj=obj, args=args)
        if kind == "lock_add":
            if not self.locks:
                return None
            cands = [o for o in self.objs.values()
                     if o.kind != "kv" and o.dtype in ("u4", "u8", "i8")
                     and (o.visible_to is None or o.visible_to == t)]
            lock = self.locks[int(rng.integers(len(self.locks)))]
            cands = [o for o in cands if o.lockable(lock.obj).any()]
            if not cands:
                return None
            o = cands[int(rng.integers(len(cands)))]
            span = self._pick_span(o.lockable(lock.obj), 1)
            if span is None:
                return None
            idx = span[0]
            o.writer[idx] = -2
            o.fenced[idx] = False
            o.lockid[idx] = lock.obj
            return Op("lock_add", thread=t, obj=o.obj,
                      args={"lock": lock.obj, "index": idx,
                            "delta": int(rng.integers(1, 9))})
        if kind in ("get_rc", "put_rc", "memget_row"):
            o = self._pick_obj(t, kinds=("matrix",))
            if o is None:
                return None
            return self._draw_matrix_op(t, o, kind)
        o = self._pick_obj(t, kinds=("array", "matrix", "scalar"))
        if o is None:
            return None
        return self._draw_data_op(t, o, kind)

    def _draw_matrix_op(self, t: int, o: _Obj, kind: str) -> Optional[Op]:
        rng = self.rng
        r = int(rng.integers(o.rows))
        if kind == "memget_row":
            tile_col = int(rng.integers(o.cols // o.tile_c))
            c0 = tile_col * o.tile_c + int(rng.integers(o.tile_c))
            limit = (tile_col + 1) * o.tile_c - c0
            cnt = int(rng.integers(1, limit + 1))
            lin = self._mat_linear(o, r, c0)
            if not o.readable(t)[lin:lin + cnt].all():
                return None
            o.mark_read(t, lin, cnt)
            return Op("memget_row", thread=t, obj=o.obj,
                      args={"r": r, "c0": c0, "nelems": cnt})
        c = int(rng.integers(o.cols))
        lin = self._mat_linear(o, r, c)
        if kind == "get_rc":
            if not o.readable(t)[lin]:
                return None
            o.mark_read(t, lin)
            return Op("get_rc", thread=t, obj=o.obj,
                      args={"r": r, "c": c})
        if not o.writable(t)[lin]:
            return None
        o.writer[lin] = t
        o.fenced[lin] = False
        return Op("put_rc", thread=t, obj=o.obj,
                  args={"r": r, "c": c,
                        "value": self._values(o.dtype, 1)[0]})

    def _draw_kv_op(self, t: int, o: _Obj, kind: str) -> Optional[Op]:
        """One kv op respecting the bucket-granular discipline.

        Key draws are biased toward already-live keys so updates,
        collisions and genuine deletes all happen; the key universe
        (``key_max > nbuckets * slots``) guarantees both bucket
        collisions and capacity pressure."""
        rng = self.rng
        nb = o.nelems
        readable = o.readable(t)
        writable = o.writable(t)

        def draw_key(bias_live: float) -> int:
            live = o.live_keys()
            if live and rng.random() < bias_live:
                return int(live[int(rng.integers(len(live)))])
            return int(rng.integers(o.key_max))

        if kind == "kv_get":
            for _ in range(6):
                key = draw_key(0.5)
                if readable[key % nb]:
                    o.mark_read(t, key % nb)
                    return Op("kv_get", thread=t, obj=o.obj,
                              args={"key": key})
            return None
        if kind == "kv_mget":
            keys = []
            for _ in range(int(rng.integers(2, 7))):
                key = draw_key(0.5)
                if readable[key % nb]:
                    keys.append(key)
                    o.mark_read(t, key % nb)
            if not keys:
                return None
            return Op("kv_mget", thread=t, obj=o.obj,
                      args={"keys": keys})
        if kind == "kv_put":
            for _ in range(8):
                key = draw_key(0.3)
                b = key % nb
                ks = o.keysets[b]
                if not writable[b]:
                    continue
                if key not in ks and len(ks) >= o.slots:
                    continue
                o.writer[b] = t
                o.fenced[b] = True   # fences inside the lock ("s")
                ks.add(key)
                return Op("kv_put", thread=t, obj=o.obj,
                          args={"key": key,
                                "value": int(rng.integers(1000))})
            return None
        # kv_del (deleting an absent key is legal and checked: the
        # found-flag return is deterministic under the discipline).
        for _ in range(6):
            key = draw_key(0.7)
            b = key % nb
            if not writable[b]:
                continue
            o.writer[b] = t
            o.fenced[b] = True
            o.keysets[b].discard(key)
            return Op("kv_del", thread=t, obj=o.obj, args={"key": key})
        return None

    @staticmethod
    def _mat_linear(o: _Obj, r: int, c: int) -> int:
        tiles_c = o.cols // o.tile_c
        tile = (r // o.tile_r) * tiles_c + (c // o.tile_c)
        within = (r % o.tile_r) * o.tile_c + (c % o.tile_c)
        return tile * o.tile_r * o.tile_c + within

    def _draw_data_op(self, t: int, o: _Obj, kind: str) -> Optional[Op]:
        rng = self.rng
        if o.kind == "scalar" and kind in ("memget_v", "memput_v",
                                           "gather", "ptr_walk"):
            kind = "get" if kind in ("memget_v", "gather",
                                     "ptr_walk") else "put"
        readable = o.readable(t)
        writable = o.writable(t)
        if kind == "get":
            span = self._pick_span(readable, 1)
            if span is None:
                return None
            o.mark_read(t, span[0])
            return Op("get", thread=t, obj=o.obj,
                      args={"index": span[0]})
        if kind in ("put", "put_strict"):
            # Stay inside one affine block (scalar-path contract).
            span = self._pick_span(writable, 1)
            if span is None:
                return None
            idx = span[0]
            o.writer[idx] = t
            o.fenced[idx] = kind == "put_strict"
            return Op(kind, thread=t, obj=o.obj,
                      args={"index": idx,
                            "values": self._values(o.dtype, 1)})
        if kind == "memget":
            want = int(bounded_geometric(rng, 24, 1, o.nelems))
            span = self._pick_span(readable, want)
            if span is None:
                return None
            o.mark_read(t, span[0], span[1])
            return Op("memget", thread=t, obj=o.obj,
                      args={"index": span[0], "nelems": span[1]})
        if kind == "memput":
            want = int(bounded_geometric(rng, 16, 1, o.nelems))
            span = self._pick_span(writable, want)
            if span is None:
                return None
            start, cnt = span
            o.writer[start:start + cnt] = t
            o.fenced[start:start + cnt] = False
            return Op("memput", thread=t, obj=o.obj,
                      args={"index": start,
                            "values": self._values(o.dtype, cnt)})
        if kind == "memget_v":
            spans = []
            for _ in range(int(rng.integers(2, 5))):
                sp = self._pick_span(readable,
                                     int(bounded_geometric(rng, 8, 1, 32)))
                if sp is not None:
                    spans.append([sp[0], sp[1]])
                    o.mark_read(t, sp[0], sp[1])
            if not spans:
                return None
            return Op("memget_v", thread=t, obj=o.obj,
                      args={"spans": spans})
        if kind == "memput_v":
            puts = []
            for _ in range(int(rng.integers(2, 4))):
                sp = self._pick_span(writable,
                                     int(bounded_geometric(rng, 6, 1, 24)))
                if sp is None:
                    continue
                start, cnt = sp
                o.writer[start:start + cnt] = t
                o.fenced[start:start + cnt] = False
                writable = o.writable(t)
                puts.append([start, self._values(o.dtype, cnt)])
            if not puts:
                return None
            return Op("memput_v", thread=t, obj=o.obj,
                      args={"puts": puts})
        if kind == "gather":
            nelems = int(rng.choice([1, 1, 1, 2, 3]))
            idxs = []
            for _ in range(int(rng.integers(2, 7))):
                sp = self._pick_span(readable, nelems)
                if sp is not None and sp[1] >= nelems:
                    idxs.append(sp[0])
                    o.mark_read(t, sp[0], nelems)
            if not idxs:
                return None
            args = {"indices": idxs,
                    "width": int(rng.integers(1, 5))}
            if nelems != 1:
                args["nelems"] = nelems
            return Op("gather", thread=t, obj=o.obj, args=args)
        if kind == "ptr_walk":
            span = self._pick_span(readable, 1)
            if span is None:
                return None
            target = span[0]
            o.mark_read(t, target)
            base = int(rng.integers(o.nelems))
            return Op("ptr_walk", thread=t, obj=o.obj,
                      args={"index": base, "delta": target - base})
        return None

    # -- phases ------------------------------------------------------------

    def _emit_parallel(self, budget: int) -> int:
        per_thread: List[List[Op]] = [[] for _ in range(self.nthreads)]
        want = min(budget, int(self.rng.integers(
            self.nthreads, 4 * self.nthreads + 1)))
        emitted = 0
        attempts = 0
        while emitted < want and attempts < want * 6:
            attempts += 1
            t = int(self.rng.integers(self.nthreads))
            op = self._draw_thread_op(t)
            if op is None:
                continue
            per_thread[t].append(op)
            emitted += 1
        if emitted == 0:
            return 0
        self.phases.append(Phase(per_thread=tuple(
            tuple(lst) for lst in per_thread)))
        return emitted

    def _kv_create_args(self) -> Tuple[int, dict]:
        rng = self.rng
        obj = self._fresh_obj_id()
        nbuckets = int(rng.integers(4, 9))
        slots = int(rng.integers(2, 5))
        access = str(rng.choice(("onesided", "rpc")))
        lock = self.locks[int(rng.integers(len(self.locks)))].obj
        span = 2 * slots
        if access == "rpc":
            # RPC handlers execute at the bucket's single home node.
            blocksize = span * int(rng.choice((1, 2)))
        else:
            # Sub-span blocks make buckets straddle affinity
            # boundaries — every fetch exercises segment splitting.
            blocksize = int(rng.choice((2, span, span * 2)))
        return obj, {"nbuckets": nbuckets, "slots": slots,
                     "access": access, "lock": lock,
                     "blocksize": blocksize}

    def _emit_collective(self, kind: Optional[str] = None) -> None:
        rng = self.rng
        if kind is None:
            kind = self._weighted(self._collective_weights)
        if kind == "kv_create":
            if len(self.objs) >= self.max_live + len(self.scalars) \
                    or not self.locks:
                kind = "barrier"
            else:
                obj, args = self._kv_create_args()
                self.objs[obj] = _Obj(
                    obj=obj, kind="kv", nelems=args["nbuckets"],
                    dtype="u8", blocksize=args["blocksize"],
                    slots=args["slots"], access=args["access"],
                    lock=args["lock"],
                    key_max=args["nbuckets"] * (args["slots"] + 1))
                self.phases.append(Phase(collective=Op(
                    "kv_create", obj=obj, args=args)))
                return
        if kind == "kv_free":
            kvs = [o for o in self.objs.values() if o.kind == "kv"]
            if not kvs:
                kind = "barrier"
            else:
                victim = kvs[int(rng.integers(len(kvs)))]
                del self.objs[victim.obj]
                self.phases.append(Phase(collective=Op(
                    "kv_free", obj=victim.obj)))
                self._clear_masks()
                return
        if kind == "alloc":
            if len(self.objs) >= self.max_live + len(self.scalars):
                kind = "free"
            else:
                obj, args = self._alloc_args()
                self._register(obj, "array", args)
                self.phases.append(Phase(collective=Op(
                    "alloc", obj=obj, args=args)))
                return
        if kind == "alloc_matrix":
            if len(self.objs) >= self.max_live + len(self.scalars):
                kind = "barrier"
            else:
                obj, args = self._alloc_matrix_args()
                self._register(obj, "matrix", args)
                self.phases.append(Phase(collective=Op(
                    "alloc_matrix", obj=obj, args=args)))
                return
        if kind == "free":
            freeable = [o for o in self.objs.values()
                        if o.kind not in ("scalar", "kv")
                        and o.visible_to is None]
            if not freeable:
                kind = "barrier"
            else:
                victim = freeable[int(rng.integers(len(freeable)))]
                del self.objs[victim.obj]
                self.phases.append(Phase(collective=Op(
                    "free", obj=victim.obj)))
                self._clear_masks()
                return
        if kind == "split_barrier":
            self.phases.append(Phase(collective=Op(
                "split_barrier",
                args={"compute": [int(rng.integers(0, 25))
                                  for _ in range(self.nthreads)]})))
            self._clear_masks()
            return
        if kind == "all_reduce":
            dtype = str(rng.choice(("i8", "f8")))
            self.phases.append(Phase(collective=Op(
                "all_reduce",
                args={"op": str(rng.choice(("sum", "max", "min"))),
                      "dtype": dtype,
                      "values": self._values(dtype, self.nthreads)})))
            return
        if kind == "broadcast":
            self.phases.append(Phase(collective=Op(
                "broadcast", args={"value": int(rng.integers(1000))})))
            return
        self.phases.append(Phase(collective=Op("barrier")))
        self._clear_masks()

    def _clear_masks(self) -> None:
        for o in self.objs.values():
            o.clear()

    # -- top level -----------------------------------------------------------

    def generate(self, n_ops: int) -> Program:
        """Build a validated program of roughly ``n_ops`` operations."""
        self._decl_statics()
        # Open with a collective allocation so there is always data.
        self._emit_collective("alloc")
        self._emit_collective("barrier")
        emitted = 2
        if self.kv:
            # Guarantee at least one store exists from the start;
            # later kv_create/kv_free churn may add/remove more.
            self._emit_collective("kv_create")
            emitted += 1
        while emitted < n_ops:
            emitted += self._emit_parallel(n_ops - emitted)
            self._emit_collective()
            emitted += 1
        if self.phases and not self.phases[-1].fencing:
            self._emit_collective("barrier")
        else:
            # Always end on an explicit barrier: the final invariant
            # sweep and state comparison anchor here.
            self._emit_collective("barrier")
        program = Program(nthreads=self.nthreads,
                          scalars=tuple(self.scalars),
                          locks=tuple(self.locks),
                          phases=tuple(self.phases),
                          seed=self.seed)
        validate(program)
        return program


def generate_program(seed: int, n_ops: int = 100,
                     nthreads: int = 4, max_live_objects: int = 5,
                     max_elems: int = 192, kv: bool = False) -> Program:
    """One-shot convenience wrapper around :class:`ProgramGenerator`."""
    return ProgramGenerator(
        seed, nthreads=nthreads, max_live_objects=max_live_objects,
        max_elems=max_elems, kv=kv).generate(n_ops)
