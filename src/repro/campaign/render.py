"""Render a completed campaign: tables, CDF figures, one report.

Everything is plain text (the repo has no plotting dependency): the
paper's figure tables go through
:func:`repro.experiments.report.render_table`, and the lossy-fabric
per-policy flow-completion-time comparison becomes an ASCII CDF
figure — log-latency x-axis, one marker per repair policy, a legend
with each policy's p50/p99 — written to
``<run_dir>/figures/lossy_<shape>.txt``.

Like the merge, rendering is a pure function of the completed cell
payloads; the combined ``campaign_report.txt`` is byte-stable across
resumes.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence, Tuple

from repro.experiments.report import render_table

__all__ = ["render_campaign", "render_cdf_figure"]

_MARKERS = "ox+*#@%&"


def render_cdf_figure(series: Sequence[Tuple[str, List[List[float]]]],
                      title: str, *, width: int = 64,
                      height: int = 17) -> str:
    """ASCII CDF overlay: ``series`` is ``[(label, [[x_us, frac],
    ...]), ...]``; x is log-scaled latency, y the cumulative
    fraction."""
    xs = [pt[0] for _, cdf in series for pt in cdf if pt[0] > 0]
    if not xs:
        return f"{title}\n(no completed flows)"
    lo, hi = math.log10(min(xs)), math.log10(max(xs))
    if hi - lo < 1e-9:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]

    def _frac_at(cdf: List[List[float]], x: float) -> float:
        frac = 0.0
        for bx, bfrac in cdf:
            if bx <= x:
                frac = bfrac
            else:
                break
        return frac

    legend = []
    nseries = max(1, len(series))
    for i, (label, cdf) in enumerate(series):
        mark = _MARKERS[i % len(_MARKERS)]
        for col in range(width):
            x = 10 ** (lo + (hi - lo) * col / (width - 1))
            frac = _frac_at(cdf, x)
            row = height - 1 - int(round(frac * (height - 1)))
            cur = grid[row][col]
            # Interleave markers where curves coincide, so an
            # overlapping series stays visible as a dashed overlay.
            if cur == " " or (cur != mark
                              and col % nseries == i % nseries):
                grid[row][col] = mark
        p50 = next((bx for bx, bf in cdf if bf >= 0.50), float("nan"))
        p99 = next((bx for bx, bf in cdf if bf >= 0.99), float("nan"))
        legend.append(f"  {mark}  {label:<20s} p50={p50:8.1f}us  "
                      f"p99={p99:8.1f}us")

    lines = [title]
    for r, row in enumerate(grid):
        frac = 1.0 - r / (height - 1)
        ylab = (f"{frac:4.2f}" if r in (0, height // 2, height - 1)
                else "    ")
        lines.append(f"{ylab} |{''.join(row)}")
    lines.append("     +" + "-" * width)
    left, mid, right = (f"{10 ** lo:.1f}us",
                        f"{10 ** ((lo + hi) / 2):.1f}us",
                        f"{10 ** hi:.1f}us")
    pad = width - len(left) - len(mid) - len(right)
    half = max(1, pad // 2)
    lines.append("      " + left + " " * half + mid
                 + " " * max(1, pad - half) + right)
    lines.append("")
    lines.extend(legend)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-kind table builders
# ---------------------------------------------------------------------------

def _kv_table(rows: List[Dict]) -> str:
    table = [dict(zipf_s=p["zipf_s"], shards=p["shards"],
                  requests=p["requests"], hit_rate=p["hit_rate"],
                  p50_us=p["p50_us"], p99_us=p["p99_us"],
                  slo_burn=(round(p["slo"]["summary"]["burn_rate"], 3)
                            if p.get("slo") else None),
                  slo_viol=(p["slo"]["summary"]["violations"]
                            if p.get("slo") else None))
             for p in rows]
    table.sort(key=lambda r: (r["zipf_s"], r["shards"]))
    return render_table(
        table, ["zipf_s", "shards", "requests", "hit_rate", "p50_us",
                "p99_us", "slo_burn", "slo_viol"],
        title="KV traffic cells: FCT quantiles and SLO burn")


def _lossy_table(rows: List[Dict]) -> str:
    table = [dict(shape=p["shape"], policy=p["policy"],
                  requests=p["requests"], failures=p["failures"],
                  p50_us=p["p50_us"], p99_us=p["p99_us"],
                  decisions=p["decisions"]) for p in rows]
    table.sort(key=lambda r: (r["shape"], r["policy"]))
    return render_table(
        table, ["shape", "policy", "requests", "failures", "p50_us",
                "p99_us", "decisions"],
        title="Lossy-fabric cells: per-policy FCT under link traces")


# ---------------------------------------------------------------------------
# The campaign renderer
# ---------------------------------------------------------------------------

def render_campaign(run_dir: str, campaign: str,
                    outcomes: Sequence[Dict]) -> List[str]:
    """Render every figure/table for the completed cells; returns the
    written paths (all under ``<run_dir>/figures/``, plus the
    combined ``campaign_report.txt``)."""
    from repro.campaign.artifacts import merge_rows

    figdir = os.path.join(run_dir, "figures")
    os.makedirs(figdir, exist_ok=True)
    by_kind = merge_rows(outcomes)
    paths: List[str] = []
    sections: List[str] = [f"campaign: {campaign}"]

    def _emit(name: str, text: str) -> None:
        path = os.path.join(figdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
        sections.append(text)

    payloads = {kind: [r["payload"] for r in rows
                       if r["status"] == "ok"]
                for kind, rows in by_kind.items()}

    # One file per figure cell: a figure swept over seeds or a runner
    # keyword has several, told apart by cell id in name and title; a
    # figure with one cell keeps the plain ``<figure>.txt``.
    figures = [(r["id"], r["payload"]) for r in by_kind.get("figure", [])
               if r["status"] == "ok"]
    names = [fig["figure"] for _, fig in figures]
    for cell_id, fig in figures:
        name, title = fig["figure"], fig["title"]
        if names.count(name) > 1:
            name, title = f"{name}.{cell_id}", f"{title} [{cell_id}]"
        _emit(f"{name}.txt",
              render_table(fig["rows"], fig["columns"], title=title))
    if payloads.get("kvtraffic"):
        kv = payloads["kvtraffic"]
        _emit("campaign_kvtraffic.txt", _kv_table(kv))
        series = sorted(
            ((f"zipf={p['zipf_s']} shards={p['shards']}", p["fct_cdf"])
             for p in kv), key=lambda s: s[0])
        _emit("kv_fct_cdf.txt",
              render_cdf_figure(series,
                                "KV traffic: flow completion time CDF"))
    if payloads.get("lossy"):
        lo = payloads["lossy"]
        _emit("campaign_lossy.txt", _lossy_table(lo))
        shapes = sorted({p["shape"] for p in lo})
        for shape in shapes:
            series = sorted(((p["policy"], p["fct_cdf"])
                             for p in lo if p["shape"] == shape),
                            key=lambda s: s[0])
            _emit(f"lossy_{shape}.txt",
                  render_cdf_figure(
                      series,
                      f"Lossy fabric ({shape} trace): FCT CDF by "
                      f"repair policy"))

    degenerate = [r for rows in by_kind.values() for r in rows
                  if r["status"] == "degenerate"]
    if degenerate:
        sections.append("degenerate cells (zero-elapsed baseline, "
                        "skipped):\n" + "\n".join(
                            f"  {r['id']}: {r.get('error', '')}"
                            for r in degenerate))

    report = os.path.join(run_dir, "campaign_report.txt")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(sections) + "\n")
    paths.append(report)
    return paths
