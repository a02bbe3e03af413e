#!/usr/bin/env python
"""Render a serving-telemetry report from a session's event sink.

Reads the rotating JSONL files a :class:`repro.obs.sink.EventSink`
produced (``session.attach_sink(path)``) and prints the standard
serving report::

    PYTHONPATH=src python tools/obs_report.py obs_sink.jsonl
    PYTHONPATH=src python tools/obs_report.py obs_sink.jsonl --json

Sections:

* **latency percentiles** — p50/p95/p99 (plus count and mean) for every
  latency histogram in the *last* ``metrics`` snapshot: per-query
  (``session.query_latency_us``), per-stage
  (``session.stage_latency_us.<backend>``), and worker-side chunk
  latencies.
* **planner regret** — the ``planner`` events replayed through
  :class:`repro.obs.planner_log.PlannerLog`, scored exactly like
  ``tools/planner_report.py``.
* **resource timeline** — every ``resource`` event with RSS / fault /
  arena-byte deltas between consecutive snapshots.
* **sampled spans** — how many span trees the sampler admitted, and the
  slowest sampled query's top-level phase breakdown.

``--json`` emits the same content as one machine-readable document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs import Span, trace_summary  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402
from repro.obs.planner_log import (  # noqa: E402
    PlannerLog,
    PlannerRecord,
    format_pick_distribution,
    format_regret_table,
)
from repro.obs.sink import read_events  # noqa: E402

QUANTILES = (0.5, 0.95, 0.99)


def percentile_rows(events: List[dict]) -> List[Dict[str, Any]]:
    """p50/p95/p99 per histogram from the last ``metrics`` snapshot."""
    snaps = [e["data"] for e in events if e.get("kind") == "metrics"]
    if not snaps:
        return []
    rows = []
    for name, payload in sorted(snaps[-1].get("histograms", {}).items()):
        h = Histogram.from_payload(payload)
        rows.append({
            "name": name,
            "count": h.count,
            "mean": h.mean,
            **{f"p{int(q * 100)}": h.quantile(q) for q in QUANTILES},
        })
    return rows


def planner_log_from_events(events: List[dict]) -> PlannerLog:
    log = PlannerLog()
    for e in events:
        if e.get("kind") == "planner":
            log.record(PlannerRecord.from_dict(e["data"]))
    return log


def resource_rows(events: List[dict]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    prev = None
    for e in events:
        if e.get("kind") != "resource":
            continue
        row = dict(e["data"])
        if prev is not None:
            for k in ("rss_bytes", "minor_faults", "major_faults"):
                row[f"d_{k}"] = row.get(k, 0) - prev.get(k, 0)
        rows.append(row)
        prev = e["data"]
    return rows


def span_section(events: List[dict]) -> Dict[str, Any]:
    spans = [e["data"] for e in events if e.get("kind") == "span"]
    section: Dict[str, Any] = {"sampled": len(spans)}
    if spans:
        slowest = max(spans, key=lambda s: s.get("duration_ns", 0))
        section["slowest_ns"] = slowest.get("duration_ns", 0)
        section["slowest"] = slowest
    return section


def crash_rows(events: List[dict]) -> List[dict]:
    return [e["data"] for e in events if e.get("kind") == "crash"]


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.0f}us"


def _fmt_bytes(b: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(b) < 1024 or unit == "GB":
            return f"{b:.1f}{unit}" if unit != "B" else f"{int(b)}B"
        b /= 1024
    return f"{b:.1f}GB"


def render_text(path: str, events: List[dict]) -> str:
    lines: List[str] = []
    meta = next((e["data"] for e in events if e.get("kind") == "meta"), None)
    lines.append(f"event sink: {path} ({len(events)} events)")
    if meta:
        lines.append(
            "session: n={n} d={d} backend={backend} n_workers={n_workers} "
            "sample_rate={trace_sample_rate}".format(**meta)
        )
    rows = percentile_rows(events)
    lines.append("")
    lines.append("== latency percentiles (last metrics snapshot) ==")
    if rows:
        width = max(len(r["name"]) for r in rows)
        lines.append(
            f"{'histogram'.ljust(width)}  {'count':>8}  {'mean':>10}  "
            f"{'p50':>10}  {'p95':>10}  {'p99':>10}"
        )
        for r in rows:
            lines.append(
                f"{r['name'].ljust(width)}  {r['count']:>8}  "
                f"{_fmt_us(r['mean']):>10}  {_fmt_us(r['p50']):>10}  "
                f"{_fmt_us(r['p95']):>10}  {_fmt_us(r['p99']):>10}"
            )
    else:
        lines.append("(no metrics snapshots in sink)")

    log = planner_log_from_events(events)
    lines.append("")
    lines.append(f"== planner regret ({len(log)} records) ==")
    if len(log):
        lines.append(format_regret_table(log))
        lines.append("")
        lines.append(format_pick_distribution(log))
    else:
        lines.append("(no planner events in sink)")

    res = resource_rows(events)
    lines.append("")
    lines.append(f"== resource timeline ({len(res)} snapshots) ==")
    for row in res:
        delta = ""
        if "d_rss_bytes" in row:
            delta = (
                f"  (d_rss={_fmt_bytes(row['d_rss_bytes'])}"
                f" d_minflt={row['d_minor_faults']}"
                f" d_majflt={row['d_major_faults']})"
            )
        pool = row.get("pool") or {}
        lines.append(
            f"rss={_fmt_bytes(row['rss_bytes'])} "
            f"minflt={row['minor_faults']} majflt={row['major_faults']} "
            f"arena={_fmt_bytes(row.get('arena_bytes', 0))} "
            f"rebuilds={pool.get('pool_rebuilds', 0)} "
            f"crashes={pool.get('worker_crashes', 0)}{delta}"
        )

    spans = span_section(events)
    lines.append("")
    lines.append(f"== sampled spans: {spans['sampled']} ==")
    if spans.get("slowest") is not None:
        lines.append(
            f"slowest sampled query ({spans['slowest_ns'] / 1e6:.1f}ms):"
        )
        lines.append(trace_summary(Span.from_dict(spans["slowest"])))

    crashes = crash_rows(events)
    if crashes:
        lines.append("")
        lines.append(f"== worker crashes: {len(crashes)} ==")
        for c in crashes:
            lines.append(f"  {c}")
    return "\n".join(lines)


def report_dict(path: str, events: List[dict]) -> dict:
    spans = span_section(events)
    spans.pop("slowest", None)  # the full tree is bulky; keep the scalar
    return {
        "schema": "repro-obs-report/v1",
        "sink": path,
        "events": len(events),
        "meta": next(
            (e["data"] for e in events if e.get("kind") == "meta"), None
        ),
        "percentiles": percentile_rows(events),
        "planner_records": sum(
            1 for e in events if e.get("kind") == "planner"
        ),
        "resources": resource_rows(events),
        "spans": spans,
        "crashes": crash_rows(events),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "sink", help="event sink path (rotated generations are included)"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as one JSON document",
    )
    args = parser.parse_args(argv)
    events = read_events(args.sink)
    if args.json:
        print(json.dumps(report_dict(args.sink, events), indent=2))
    else:
        print(render_text(args.sink, events))
    return 0


if __name__ == "__main__":
    sys.exit(main())
