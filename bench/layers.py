"""Host time by layer: bucket a cProfile run by source path.

A *layer* is a module group under ``src/repro/`` (see
:data:`bench.metrics.LAYERS`).  Every profiled function is classified
by its file; C built-ins and standard-library Python have no layer of
their own, so their self time is charged to the layer of whoever called
them, following the profile's caller edges (transitively, split by the
cumulative time along each edge).  numpy callables go to ``numpy``.
Whatever has no caller at all — the profiler's own enable/disable —
lands in ``bench``, so the shares sum to exactly 1.

Known limit: the profiler hooks every call, so call-heavy layers are
inflated relative to layers that sit in few long numpy calls.  Shares
rank layers; they are not seconds saved.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

from bench.metrics import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPRO = os.path.join(ROOT, "src", "repro") + os.sep
_BENCH = os.path.join(ROOT, "bench") + os.sep

#: Tooling that must never run inside a repetition (CLIs, campaign
#: orchestration, the fuzzer): time found here fails the run.
OFFLINE = "offline"

#: Files that belong to the sharded core although they live in another
#: package (or share ``sim/`` with the event core).
_SHARD_FILES = frozenset({
    "sim/shard.py", "sim/sync.py",
    "network/shard_channel.py", "network/partition.py",
})

_PACKAGE_LAYER = {
    "sim": "sim.core", "network": "network", "memory": "memory",
    "core": "core", "runtime": "runtime", "service": "service",
    "workloads": "workloads", "util": "util", "faults": "faults",
    "obs": "obs", "trace": "obs",
    "campaign": OFFLINE, "experiments": OFFLINE, "testing": OFFLINE,
}

_TOP_LEVEL = {"__init__.py": OFFLINE, "__main__.py": OFFLINE}


class UnmappedSource(KeyError):
    """A file under ``src/repro/`` that the layer map does not know:
    map it here before measuring, so new modules cannot hide."""


def layer_of_repro(relpath: str) -> str:
    """Layer of a ``src/repro``-relative path (``/``-separated)."""
    if relpath in _SHARD_FILES:
        return "sim.shard"
    head, _, rest = relpath.partition("/")
    table = _PACKAGE_LAYER if rest else _TOP_LEVEL
    try:
        return table[head]
    except KeyError:
        raise UnmappedSource(relpath) from None


def classify(func: Tuple[str, int, str]) -> Optional[str]:
    """Layer of one pstats function key, or None when its time belongs
    to its callers (built-ins, generated code, the standard library)."""
    filename, _, name = func
    if filename == "~":                       # C callable
        return "numpy" if "numpy" in name else None
    if filename.startswith(_REPRO):
        return layer_of_repro(
            filename[len(_REPRO):].replace(os.sep, "/"))
    if filename.startswith(_BENCH):
        return "bench"
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    return None


def bucket(profile) -> dict:
    """Fold a finished ``cProfile.Profile`` into the layer table."""
    stats = pstats.Stats(profile).stats
    layer = {f: classify(f) for f in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, visiting) -> Dict[str, float]:
        """Layer shares an unclassified function's time is charged to."""
        if layer[func] is not None:
            return {layer[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting:                  # recursion among helpers
            return {}
        visiting = visiting | {func}
        callers = stats[func][4]
        use_ct = any(edge[3] > 0 for edge in callers.values())
        mix: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[3] if use_ct else edge[1]
            if weight <= 0 or caller not in stats:
                continue
            for lay, share in owners(caller, visiting).items():
                mix[lay] = mix.get(lay, 0.0) + weight * share
        total = sum(mix.values())
        out = ({k: v / total for k, v in mix.items()} if total > 0
               else {"bench": 1.0})
        memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS + (OFFLINE,), 0.0)
    calls = dict.fromkeys(LAYERS + (OFFLINE,), 0)
    edges: Dict[str, int] = {}
    per_func = {lay: [] for lay in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        lay = layer[func]
        if lay is None:
            for owner, share in owners(func, frozenset()).items():
                self_s[owner] += tt * share
            continue
        self_s[lay] += tt
        calls[lay] += nc
        if lay != OFFLINE:
            per_func[lay].append((tt, nc, func))
        for caller, edge in callers.items():
            src = layer.get(caller)
            if src is not None and src != lay:
                key = f"{src}->{lay}"
                edges[key] = edges.get(key, 0) + edge[1]
    if self_s[OFFLINE] > 0 or calls[OFFLINE] > 0:
        raise RuntimeError(
            f"offline tooling ran inside a repetition "
            f"({calls[OFFLINE]} calls) — see bench/layers.py")
    total = sum(self_s[lay] for lay in LAYERS)
    top = {}
    for lay, rows in per_func.items():
        rows.sort(key=lambda r: (-r[0], r[2]))
        top[lay] = [{"func": f"{os.path.relpath(f[0], ROOT)}:{f[1]}"
                             f"({f[2]})" if f[0] != "~" else f[2],
                     "self_s": round(tt, 6), "calls": nc}
                    for tt, nc, f in rows[:10]]
    return {
        "total_s": total,
        "layers": {lay: {"self_s": self_s[lay],
                         "self_share": (self_s[lay] / total
                                        if total > 0 else 0.0),
                         "calls": calls[lay]} for lay in LAYERS},
        "edges": dict(sorted(edges.items())),
        "top": top,
    }
