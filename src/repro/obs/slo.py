"""Streaming SLO monitor: rolling-window latency, burn rate, anomalies.

The KV traffic harness (:mod:`repro.workloads.kv_traffic`) produces
millions of flow-completion times; this module watches that stream the
way a service owner would:

* **windows** — completions are bucketed into fixed-width time windows
  (``window_us``).  Each window keeps its own fixed-edge log-binned
  latency histogram plus counters (violations, hits, retries, peak
  in-flight).  Fixed window edges (``index = floor(t / window_us)``)
  and fixed histogram edges make the cross-shard merge an elementwise
  sum — the same layout-invariance discipline as the traffic
  histograms, so ``shards=1/2/4`` report bit-identical windows;
* **quantiles** — per-window p50/p99 come from the window histogram
  and the run's from the summed histograms (mergeable, and read off
  the one bin-edge table :data:`HIST_EDGES`);
* **burn rate** — each window's violation fraction over the error
  budget ``1 - slo_quantile``: burn 1.0 means "spending budget exactly
  at the sustainable rate", 10 means "budget gone in a tenth of the
  period" (the standard multi-window burn-rate alerting currency);
* **anomaly detectors** — threshold flags over the window series:
  ``retry_storm`` (retry fraction above an absolute bar),
  ``backlog_spike`` (peak in-flight far above the run median) and
  ``p99_regression`` (window p99 far above the median of the preceding
  windows).

Everything here is observational: the monitor never touches the
simulator, so enabling it leaves runs bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.util.quantiles import quantile

#: The one latency-histogram geometry: 256 log-spaced bins over
#: [0.1 µs, 1 s], shared by the SLO windows here and the traffic
#: harness's run histograms (:mod:`repro.workloads.kv_traffic`), so
#: window quantiles and run quantiles are directly comparable.  Fixed
#: edges are what make every cross-shard merge an elementwise sum.
SLO_HIST_BINS = 256
_HIST_LO_US = 0.1
_HIST_HI_US = 1e6
LOG_LO = math.log(_HIST_LO_US)
LOG_SPAN = math.log(_HIST_HI_US) - LOG_LO
#: The bin edges (µs): bin ``i`` spans ``HIST_EDGES[i]`` to
#: ``HIST_EDGES[i + 1]``.  Computed once, read-only; every histogram
#: quantile — window, run and traffic — reads this one table.
HIST_EDGES = np.exp(LOG_LO + LOG_SPAN * np.arange(SLO_HIST_BINS + 1)
                    / SLO_HIST_BINS)
HIST_EDGES.flags.writeable = False


def bin_of(latency_us: float) -> int:
    """Histogram bin a latency falls in (clamped at both ends)."""
    if latency_us <= _HIST_LO_US:
        return 0
    b = int((math.log(latency_us) - LOG_LO) / LOG_SPAN * SLO_HIST_BINS)
    return min(b, SLO_HIST_BINS - 1)


def quantile_bin(hist: Sequence[int], q: float) -> int:
    """The quantile rule: index of the bin where the cumulative count
    crosses ``q`` (its upper edge is the reported quantile), or -1 for
    an empty histogram.  A pure function of the (possibly merged)
    counts, hence layout-invariant."""
    total = sum(hist)
    if total == 0:
        return -1
    want = q * total
    cum = 0
    for idx, n in enumerate(hist):
        cum += n
        if cum >= want:
            return idx
    return SLO_HIST_BINS - 1  # pragma: no cover - guard


def hist_quantile(hist: Sequence[int], q: float) -> float:
    """Quantile from a (possibly merged) histogram: the upper edge of
    the bin where the cumulative count crosses ``q``."""
    idx = quantile_bin(hist, q)
    return float(HIST_EDGES[idx + 1]) if idx >= 0 else 0.0


class SLOWindow:
    """One fixed time window's worth of completions."""

    __slots__ = ("index", "count", "violations", "hits", "retries",
                 "max_inflight", "policy_actions", "hist")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.violations = 0
        self.hits = 0
        self.retries = 0
        self.max_inflight = 0
        self.policy_actions = 0
        self.hist = [0] * SLO_HIST_BINS


class SLOMonitor:
    """Streaming service-level monitor over a completion stream.

    ``observe(t, latency_us, ...)`` is the only hot-path call; it costs
    a dict lookup and a histogram increment — no simulator interaction
    whatsoever.
    """

    def __init__(self, target_us: float, window_us: float = 5000.0,
                 slo_quantile: float = 0.99) -> None:
        if target_us <= 0:
            raise ValueError("target_us must be positive")
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if not 0.0 < slo_quantile < 1.0:
            raise ValueError("slo_quantile must be in (0, 1)")
        self.target_us = float(target_us)
        self.window_us = float(window_us)
        self.slo_quantile = float(slo_quantile)
        self.windows: Dict[int, SLOWindow] = {}

    def observe(self, t: float, latency_us: float, *, hit: bool = False,
                retried: bool = False, inflight: int = 0) -> None:
        """Record one completion at virtual time ``t``."""
        idx = int(t // self.window_us)
        w = self.windows.get(idx)
        if w is None:
            w = self.windows[idx] = SLOWindow(idx)
        w.count += 1
        w.hist[bin_of(latency_us)] += 1
        if latency_us > self.target_us:
            w.violations += 1
        if hit:
            w.hits += 1
        if retried:
            w.retries += 1
        if inflight > w.max_inflight:
            w.max_inflight = inflight

    def observe_policy_action(self, t: float) -> None:
        """Record one repair-policy action at virtual time ``t`` — the
        window series then shows *when* the policy moved, so flapping
        policies surface in the same view as their latency damage."""
        idx = int(t // self.window_us)
        w = self.windows.get(idx)
        if w is None:
            w = self.windows[idx] = SLOWindow(idx)
        w.policy_actions += 1

    # -- window math ---------------------------------------------------

    def sorted_windows(self) -> List[SLOWindow]:
        return [self.windows[i] for i in sorted(self.windows)]

    # -- serialization / merge -----------------------------------------

    def export(self) -> List[dict]:
        """Windows as plain JSON-able dicts (shards publish
        these; :func:`merge_window_dicts` recombines them)."""
        return [{"index": w.index, "count": w.count,
                 "violations": w.violations, "hits": w.hits,
                 "retries": w.retries, "max_inflight": w.max_inflight,
                 "policy_actions": w.policy_actions,
                 "hist": list(w.hist)}
                for w in self.sorted_windows()]

    @staticmethod
    def merge_window_dicts(batches: Iterable[List[dict]]) -> List[dict]:
        """Merge per-shard window exports: counts sum, histograms sum
        elementwise, in-flight peaks take the max.  Pure arithmetic on
        fixed-edge windows — layout-invariant by construction."""
        merged: Dict[int, dict] = {}
        for batch in batches:
            for w in batch:
                m = merged.get(w["index"])
                if m is None:
                    m = merged[w["index"]] = {
                        "index": w["index"], "count": 0, "violations": 0,
                        "hits": 0, "retries": 0, "max_inflight": 0,
                        "policy_actions": 0,
                        "hist": [0] * SLO_HIST_BINS}
                m["count"] += w["count"]
                m["violations"] += w["violations"]
                m["hits"] += w["hits"]
                m["retries"] += w["retries"]
                m["max_inflight"] = max(m["max_inflight"],
                                        w["max_inflight"])
                m["policy_actions"] += w.get("policy_actions", 0)
                m["hist"] = [a + b for a, b in zip(m["hist"], w["hist"])]
        return [merged[i] for i in sorted(merged)]


def window_stats(window: dict, *, target_us: float, window_us: float,
                 slo_quantile: float = 0.99) -> dict:
    """Derived per-window numbers (quantiles, burn rate) from one
    exported/merged window dict."""
    budget = 1.0 - slo_quantile
    count = window["count"]
    frac = window["violations"] / count if count else 0.0
    return {
        "index": window["index"],
        "t0_us": window["index"] * window_us,
        "t1_us": (window["index"] + 1) * window_us,
        "count": count,
        "violations": window["violations"],
        "violation_frac": frac,
        "burn_rate": frac / budget,
        "p50_us": hist_quantile(window["hist"], 0.50),
        "p99_us": hist_quantile(window["hist"], 0.99),
        "hit_rate": window["hits"] / count if count else 0.0,
        "retries": window["retries"],
        "max_inflight": window["max_inflight"],
        "policy_actions": window.get("policy_actions", 0),
    }


def detect_anomalies(windows: List[dict], *, target_us: float,
                     window_us: float, slo_quantile: float = 0.99,
                     retry_frac: float = 0.05, min_retries: int = 8,
                     backlog_factor: float = 3.0, min_inflight: int = 8,
                     p99_factor: float = 2.0, min_count: int = 16,
                     warmup_windows: int = 3,
                     flap_actions: int = 4) -> List[dict]:
    """Threshold anomaly detectors over a merged window series.

    Each flag is ``{"kind", "index", "t0_us", "t1_us", "value",
    "threshold"}``:

    ``retry_storm``
        a window whose retry fraction exceeds ``retry_frac`` (with at
        least ``min_retries`` retries — tiny windows don't storm);
    ``backlog_spike``
        peak in-flight above ``backlog_factor`` × the run-median peak
        (and above ``min_inflight`` absolutely — median-relative
        factors drown when the run mostly idles);
    ``p99_regression``
        window p99 above ``p99_factor`` × the median p99 of *preceding*
        windows (at least ``warmup_windows`` of them, each with
        ``min_count`` completions — the causal form a live monitor
        could actually alert on);
    ``policy_flap``
        ``flap_actions`` or more repair-policy actions inside one
        window — a policy oscillating faster than the service recovers
        is itself an incident.
    """
    flags: List[dict] = []

    def flag(kind: str, w: dict, value: float, threshold: float) -> None:
        flags.append({"kind": kind, "index": w["index"],
                      "t0_us": w["index"] * window_us,
                      "t1_us": (w["index"] + 1) * window_us,
                      "value": value, "threshold": threshold})

    for w in windows:
        if w["count"] == 0:
            continue
        frac = w["retries"] / w["count"]
        if w["retries"] >= min_retries and frac > retry_frac:
            flag("retry_storm", w, frac, retry_frac)

    for w in windows:
        actions = w.get("policy_actions", 0)
        if actions >= flap_actions:
            flag("policy_flap", w, float(actions), float(flap_actions))

    peaks = [w["max_inflight"] for w in windows if w["count"]]
    med_peak = quantile(peaks, 0.5)
    if med_peak > 0:
        thr = max(backlog_factor * med_peak, float(min_inflight))
        for w in windows:
            if w["count"] and w["max_inflight"] > thr:
                flag("backlog_spike", w, float(w["max_inflight"]), thr)

    history: List[float] = []
    for w in windows:
        if w["count"] < min_count:
            continue
        p99 = hist_quantile(w["hist"], 0.99)
        if len(history) >= warmup_windows:
            baseline = quantile(history, 0.5)
            if baseline > 0 and p99 > p99_factor * baseline:
                flag("p99_regression", w, p99, p99_factor * baseline)
        history.append(p99)
    return flags


def slo_summary(windows: List[dict], *, target_us: float,
                window_us: float, slo_quantile: float = 0.99) -> dict:
    """Run-level rollup of a merged window series (overall quantiles
    from the summed histograms, total burn, worst window)."""
    total_hist = [0] * SLO_HIST_BINS
    count = violations = hits = retries = policy_actions = 0
    worst: Optional[dict] = None
    budget = 1.0 - slo_quantile
    for w in windows:
        total_hist = [a + b for a, b in zip(total_hist, w["hist"])]
        count += w["count"]
        violations += w["violations"]
        hits += w["hits"]
        retries += w["retries"]
        policy_actions += w.get("policy_actions", 0)
        if w["count"]:
            burn = (w["violations"] / w["count"]) / budget
            if worst is None or burn > worst["burn_rate"]:
                worst = {"index": w["index"], "burn_rate": burn}
    frac = violations / count if count else 0.0
    return {
        "target_us": target_us,
        "window_us": window_us,
        "slo_quantile": slo_quantile,
        "windows": len(windows),
        "count": count,
        "violations": violations,
        "violation_frac": frac,
        "burn_rate": frac / budget,
        "p50_us": hist_quantile(total_hist, 0.50),
        "p99_us": hist_quantile(total_hist, 0.99),
        "hit_rate": hits / count if count else 0.0,
        "retries": retries,
        "policy_actions": policy_actions,
        "worst_window": worst,
    }


def render_slo(windows: List[dict], summary: dict,
               anomalies: List[dict], *, max_rows: int = 12) -> str:
    """Human-readable SLO report section (windows table + flags)."""
    lines = [
        f"SLO: target {summary['target_us']:.1f}us at "
        f"p{summary['slo_quantile'] * 100:.0f}, "
        f"{summary['window_us']:.0f}us windows",
        f"  {summary['count']} completions in {summary['windows']} "
        f"windows; overall p50={summary['p50_us']:.1f}us "
        f"p99={summary['p99_us']:.1f}us",
        f"  violations {summary['violations']} "
        f"({summary['violation_frac']:.2%}), "
        f"burn rate {summary['burn_rate']:.2f} "
        f"(1.0 = budget-sustainable), hit rate "
        f"{summary['hit_rate']:.3f}",
    ]
    stats = [window_stats(w, target_us=summary["target_us"],
                          window_us=summary["window_us"],
                          slo_quantile=summary["slo_quantile"])
             for w in windows]
    shown = stats[:max_rows]
    lines.append(f"  {'window':>8} {'count':>7} {'p50_us':>8} "
                 f"{'p99_us':>8} {'burn':>6} {'hit':>6} {'infl':>5}")
    for s in shown:
        lines.append(
            f"  {s['index']:>8} {s['count']:>7} {s['p50_us']:>8.1f} "
            f"{s['p99_us']:>8.1f} {s['burn_rate']:>6.2f} "
            f"{s['hit_rate']:>6.3f} {s['max_inflight']:>5}")
    if len(stats) > max_rows:
        lines.append(f"  ... {len(stats) - max_rows} more window(s)")
    if anomalies:
        lines.append(f"  {len(anomalies)} anomaly flag(s):")
        for a in anomalies:
            lines.append(
                f"    [{a['kind']}] window {a['index']} "
                f"({a['t0_us']:.0f}..{a['t1_us']:.0f}us): "
                f"value {a['value']:.2f} > threshold "
                f"{a['threshold']:.2f}")
    else:
        lines.append("  no anomaly flags")
    return "\n".join(lines)
