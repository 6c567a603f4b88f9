"""``python -m repro report <run-dir>`` — one unified run report.

A *run directory* is whatever a traced run left behind; the report
command stitches every artifact it recognizes into one text + JSON
summary:

* ``*.events.jsonl``      — merged flight-recorder streams (from
  ``trace ... --shards N`` or ``kvtraffic --trace-dir``): op-latency
  breakdown by span name, per-shard event/op rollups, cross-shard
  message pairing, conservative-sync round/stall stats;
* ``slo.json``            — the SLO monitor's windows, summary and
  anomaly flags (from ``kvtraffic --slo-target-us``);
* ``shard_summary.json``  — the sharded core's metric rollup
  (sync rounds, channel traffic, per-shard clocks);
* ``links.json``          — per-link health totals, exhausted
  requests and repair-policy decisions (from ``kvtraffic
  --fault-profile``);
* ``campaign.json``       — a sweep campaign's manifest (from
  ``python -m repro campaign``): per-cell statuses and the spec
  that produced them.

Output is ``report.txt`` (also printed) and ``report.json`` in the
same directory, so a CI artifact of the run dir is self-describing.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional

from repro.obs.events import (
    EventLog,
    OP_END,
    SYNC_ROUND,
    XSHARD_RECV,
    XSHARD_SEND,
)
from repro.obs.export import load_jsonl
from repro.obs.shardlog import xshard_pairs
from repro.obs.slo import render_slo


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return sorted_vals[idx]


def op_latency_table(log: EventLog) -> List[dict]:
    """Per-span-name latency rollup over the log's completed ops."""
    durs: Dict[str, List[float]] = {}
    for b, e in log.op_spans().values():
        name = str(b.attrs.get("name", "op"))
        durs.setdefault(name, []).append(max(e.t - b.t, 0.0))
    rows = []
    for name in sorted(durs):
        vals = sorted(durs[name])
        rows.append({
            "name": name,
            "count": len(vals),
            "mean_us": sum(vals) / len(vals),
            "p50_us": _percentile(vals, 0.50),
            "p99_us": _percentile(vals, 0.99),
            "max_us": vals[-1],
        })
    return rows


def shard_rollups(log: EventLog) -> List[dict]:
    """Per-shard event/op/cross-shard counts from a merged log (the
    ``shard`` attr every merged event carries)."""
    by_shard: Dict[int, dict] = {}
    for e in log:
        shard = int(e.attrs.get("shard", 0))
        r = by_shard.get(shard)
        if r is None:
            r = by_shard[shard] = {
                "shard": shard, "events": 0, "ops": 0, "sends": 0,
                "recvs": 0, "sync_rounds": 0, "stall_rounds": 0,
                "t_last_us": 0.0}
        r["events"] += 1
        r["t_last_us"] = max(r["t_last_us"], e.t)
        if e.kind == OP_END:
            r["ops"] += 1
        elif e.kind == XSHARD_SEND:
            r["sends"] += 1
        elif e.kind == XSHARD_RECV:
            r["recvs"] += 1
        elif e.kind == SYNC_ROUND:
            r["sync_rounds"] += 1
            if e.attrs.get("stall"):
                r["stall_rounds"] += 1
    return [by_shard[s] for s in sorted(by_shard)]


def xshard_stats(log: EventLog) -> dict:
    """Cross-shard message pairing + latency stats."""
    pairs = xshard_pairs(log)
    lats = sorted(r.t - s.t for s, r in pairs.values()
                  if s is not None and r is not None)
    return {
        "msgs": len(pairs),
        "linked": len(lats),
        "unpaired": len(pairs) - len(lats),
        "latency_p50_us": _percentile(lats, 0.50),
        "latency_p99_us": _percentile(lats, 0.99),
    }


def analyze_events(path: str) -> dict:
    log = load_jsonl(path)
    return {
        "path": os.path.basename(path),
        "events": len(log),
        "dropped": log.dropped_events,
        "ops": op_latency_table(log),
        "shards": shard_rollups(log),
        "xshard": xshard_stats(log),
    }


def _render_events(a: dict) -> List[str]:
    lines = [f"events: {a['path']} — {a['events']} events "
             f"({a['dropped']} dropped)"]
    if a["ops"]:
        lines.append(f"  {'span':<14} {'count':>7} {'mean_us':>9} "
                     f"{'p50_us':>8} {'p99_us':>8} {'max_us':>9}")
        for r in a["ops"]:
            lines.append(
                f"  {r['name']:<14} {r['count']:>7} "
                f"{r['mean_us']:>9.2f} {r['p50_us']:>8.2f} "
                f"{r['p99_us']:>8.2f} {r['max_us']:>9.2f}")
    if len(a["shards"]) > 1 or a["xshard"]["msgs"]:
        lines.append(f"  {'shard':>5} {'events':>7} {'ops':>6} "
                     f"{'sends':>6} {'recvs':>6} {'rounds':>7} "
                     f"{'stalls':>6} {'t_last_us':>10}")
        for r in a["shards"]:
            lines.append(
                f"  {r['shard']:>5} {r['events']:>7} {r['ops']:>6} "
                f"{r['sends']:>6} {r['recvs']:>6} "
                f"{r['sync_rounds']:>7} {r['stall_rounds']:>6} "
                f"{r['t_last_us']:>10.1f}")
        x = a["xshard"]
        lines.append(
            f"  cross-shard: {x['msgs']} msgs, {x['linked']} linked "
            f"({x['unpaired']} unpaired), wire p50="
            f"{x['latency_p50_us']:.2f}us p99="
            f"{x['latency_p99_us']:.2f}us")
    return lines


def _render_shard_summary(s: dict) -> List[str]:
    lines = [f"shards: {s.get('shards', 0)} — "
             f"{s.get('sync_rounds', 0)} sync rounds, "
             f"{s.get('sync_stall_grains', 0)} stall grains "
             f"(mean {s.get('sync_stall_mean', 0.0):.2f}/shard)"]
    lines.append(
        f"  events total={s.get('shard_events_total', 0)} "
        f"mean={s.get('shard_events_mean', 0.0):.0f} "
        f"max={s.get('shard_events_max', 0)}; channel "
        f"{s.get('channel_msgs', 0)} msgs / "
        f"{s.get('channel_bytes', 0):,} bytes; max backlog "
        f"{s.get('shard_max_backlog', 0)}; final clock "
        f"{s.get('shard_final_clock_us', 0.0):.1f}us")
    return lines


def _render_links(doc: dict) -> List[str]:
    """Per-link health + repair-policy rollup from links.json."""
    links = doc.get("links", {})
    noisy = sorted(
        links.items(),
        key=lambda kv: (-kv[1]["timeouts"], -kv[1]["retries"], kv[0]))
    lines = [f"links: {len(links)} observed, "
             f"{doc.get('failures', 0)} exhausted request(s)"]
    if noisy:
        lines.append(f"  {'link':<8} {'attempts':>9} {'timeouts':>9} "
                     f"{'retries':>8} {'deliveries':>11}")
        for link, tot in noisy[:5]:
            lines.append(
                f"  {link:<8} {tot['attempts']:>9} "
                f"{tot['timeouts']:>9} {tot['retries']:>8} "
                f"{tot['deliveries']:>11}")
    policy = doc.get("policy")
    if policy:
        lines.append(f"  policy {policy['name']}: "
                     f"{len(policy.get('decisions', []))} decision(s), "
                     f"digest {int(policy['digest']):#018x}")
        for d in policy.get("decisions", [])[:8]:
            lines.append(
                f"    t={d['t_us']:>9.1f}us {d['src']}->{d['dst']} "
                f"{d['action']} -> {d['mode']}")
    return lines


def _render_campaign(doc: dict) -> List[str]:
    """Per-cell status rollup from a campaign.json manifest."""
    cells = doc.get("cells", [])
    statuses: Dict[str, int] = {}
    for c in cells:
        statuses[c["status"]] = statuses.get(c["status"], 0) + 1
    rollup = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    lines = [f"campaign: {doc.get('campaign', '?')} — "
             f"{doc.get('n_cells', len(cells))} cell(s), "
             f"{doc.get('workers', '?')} worker(s); {rollup or 'none'}"]
    bad = [c for c in cells if c["status"] not in ("ok",)]
    for c in bad[:8]:
        lines.append(f"  [{c['status']}] {c['id']}")
    return lines


def build_report(run_dir: str) -> dict:
    """Scan ``run_dir`` and assemble the unified report dict."""
    report: dict = {"run_dir": os.path.abspath(run_dir),
                    "events": [], "slo": None, "shard_summary": None,
                    "links": None, "campaign": None}
    for path in sorted(glob.glob(os.path.join(run_dir,
                                              "*.events.jsonl"))):
        report["events"].append(analyze_events(path))
    for key in ("slo", "shard_summary", "links", "campaign"):
        path = os.path.join(run_dir, f"{key}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report[key] = json.load(fh)
    return report


def render_report(report: dict) -> str:
    lines = [f"run report: {report['run_dir']}"]
    if report["shard_summary"]:
        lines.append("")
        lines.extend(_render_shard_summary(report["shard_summary"]))
    for a in report["events"]:
        lines.append("")
        lines.extend(_render_events(a))
    if report["slo"]:
        s = report["slo"]
        lines.append("")
        lines.append(render_slo(s["windows"], s["summary"],
                                s.get("anomalies", [])))
    if report.get("links"):
        lines.append("")
        lines.extend(_render_links(report["links"]))
    if report.get("campaign"):
        lines.append("")
        lines.extend(_render_campaign(report["campaign"]))
    if not (report["events"] or report["slo"]
            or report["shard_summary"] or report.get("links")
            or report.get("campaign")):
        lines.append("  (no recognized artifacts — expected "
                     "*.events.jsonl, slo.json, shard_summary.json, "
                     "links.json or campaign.json)")
    return "\n".join(lines)


def report_main(args) -> int:
    if not os.path.isdir(args.run_dir):
        args.error(f"not a directory: {args.run_dir}")

    report = build_report(args.run_dir)
    text = render_report(report)
    out_dir = args.out or args.run_dir
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, "report.txt")
    json_path = os.path.join(out_dir, "report.json")
    from repro.campaign.artifacts import atomic_write_json
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    atomic_write_json(json_path, report, indent=1, sort_keys=True)
    print(text)
    print(f"\n  wrote {txt_path}")
    print(f"  wrote {json_path}")
    return 0
