"""Exporters: traces and metrics as JSON, Prometheus text, and prose.

Three consumers, three formats:

* :func:`trace_to_json` / :func:`metrics_to_json` — machine-readable
  artifacts (benchmark records, CI uploads, offline diffing).
* :func:`metrics_to_prometheus` — the Prometheus text exposition format
  (one scrape's worth; counters, gauges, and cumulative-bucket
  histograms), so a serving deployment can lift the registry straight
  onto a ``/metrics`` endpoint.
* :func:`trace_summary` — the human-readable report: the span tree with
  sibling spans of one name aggregated (a 400-chunk join prints one
  ``run_chunk x400`` line, not 400 lines), percentages against the
  parent, and the registry's headline numbers.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span

#: Metric names are dotted (``verify.gemm_blocks``); Prometheus wants
#: ``[a-zA-Z_:][a-zA-Z0-9_:]*``.  Replace every disallowed character
#: (not just a known-bad list) so arbitrary stage labels survive.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_BAD_FIRST = re.compile(r"^[^a-zA-Z_:]")

#: Default quantiles exported for every histogram (serving percentiles).
EXPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def _prom_name(prefix: str, name: str) -> str:
    metric = _PROM_BAD.sub("_", f"{prefix}_{name}")
    return _PROM_BAD_FIRST.sub("_", metric)


def _payload_quantiles(payload: dict, qs: Sequence[float]) -> Dict[str, float]:
    """Quantile estimates for one histogram snapshot payload."""
    h = Histogram.from_payload(payload)
    return {f"{q:g}": h.quantile(q) for q in qs}


def trace_to_json(trace: Span, indent: Optional[int] = None) -> str:
    """One span tree as a JSON document."""
    return json.dumps(trace.to_dict(), indent=indent, sort_keys=False)


def metrics_to_json(
    metrics: Union[MetricsRegistry, dict],
    indent: Optional[int] = None,
    quantiles: Optional[Sequence[float]] = EXPORT_QUANTILES,
) -> str:
    """A registry (or a registry snapshot) as a JSON document.

    Histogram payloads additionally carry a ``"quantiles"`` map
    (``{"0.5": ..., "0.95": ..., "0.99": ...}`` by default); pass
    ``quantiles=None`` for the raw mergeable snapshot shape.
    """
    snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    if quantiles:
        snapshot = dict(snapshot)
        snapshot["histograms"] = {
            name: {**payload, "quantiles": _payload_quantiles(payload, quantiles)}
            for name, payload in snapshot.get("histograms", {}).items()
        }
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def metrics_to_prometheus(
    metrics: Union[MetricsRegistry, dict],
    prefix: str = "repro",
    help_texts: Optional[Dict[str, str]] = None,
    quantiles: Optional[Sequence[float]] = EXPORT_QUANTILES,
) -> str:
    """The registry in Prometheus text exposition format.

    Every metric gets ``# HELP`` and ``# TYPE`` lines, with names
    sanitized to the Prometheus charset.  Histograms follow the
    convention: cumulative ``_bucket`` series with ``le`` labels (ending
    at ``le="+Inf"``), plus ``_sum`` and ``_count`` — and, for serving
    dashboards that want percentiles without a ``histogram_quantile``
    query, precomputed ``_p50``-style gauges for each of ``quantiles``.

    ``help_texts`` maps *original* (dotted) metric names to HELP
    strings; unmapped metrics get a generated one.
    """
    snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    helps = help_texts or {}

    def _header(metric: str, name: str, kind: str) -> List[str]:
        text = helps.get(name, f"repro metric {name}")
        return [f"# HELP {metric} {text}", f"# TYPE {metric} {kind}"]

    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(prefix, name)
        lines.extend(_header(metric, name, "counter"))
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(prefix, name)
        lines.extend(_header(metric, name, "gauge"))
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        metric = _prom_name(prefix, name)
        lines.extend(_header(metric, name, "histogram"))
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            label = f"{bound:g}"
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        cumulative += payload["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {payload['sum']}")
        lines.append(f"{metric}_count {payload['count']}")
        for q, value in _payload_quantiles(payload, quantiles or ()).items():
            pct = float(q) * 100
            tag = f"{pct:g}".replace(".", "_")
            lines.append(f"{metric}_p{tag} {value:g}")
    return "\n".join(lines) + "\n"


def _format_ms(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    return f"{ns / 1e3:.0f}us"


def _render_group(
    name: str,
    spans: List[Span],
    parent_ns: int,
    depth: int,
    lines: List[str],
) -> None:
    total_ns = sum(s.duration_ns for s in spans)
    share = f" ({100.0 * total_ns / parent_ns:.0f}%)" if parent_ns else ""
    mult = f" x{len(spans)}" if len(spans) > 1 else ""
    attrs = ""
    if len(spans) == 1 and spans[0].attrs:
        rendered = ", ".join(f"{k}={v}" for k, v in spans[0].attrs.items())
        attrs = f"  [{rendered}]"
    lines.append(
        f"{'  ' * depth}{name}{mult}: {_format_ms(total_ns)}{share}{attrs}"
    )
    # Aggregate the children of every span in the group by name, in
    # first-appearance order, and recurse on the merged groups.
    groups: dict = {}
    for parent in spans:
        for child in parent.children:
            groups.setdefault(child.name, []).append(child)
    for child_name, members in groups.items():
        _render_group(child_name, members, total_ns, depth + 1, lines)


def trace_summary(
    trace: Span,
    metrics: Union[MetricsRegistry, dict, None] = None,
    max_metrics: int = 30,
) -> str:
    """Human-readable report for one trace (and optionally its metrics)."""
    lines: List[str] = []
    _render_group(trace.name, [trace], 0, 0, lines)
    if metrics is not None:
        snapshot = (
            metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
        )
        rows: List[str] = []
        for name in sorted(snapshot.get("counters", {})):
            rows.append(f"  {name} = {snapshot['counters'][name]}")
        for name in sorted(snapshot.get("gauges", {})):
            rows.append(f"  {name} = {snapshot['gauges'][name]}")
        for name in sorted(snapshot.get("histograms", {})):
            payload = snapshot["histograms"][name]
            mean = payload["sum"] / payload["count"] if payload["count"] else 0.0
            rows.append(
                f"  {name}: count={payload['count']} mean={mean:.1f} "
                f"sum={payload['sum']}"
            )
        if rows:
            lines.append("metrics:")
            lines.extend(rows[:max_metrics])
            if len(rows) > max_metrics:
                lines.append(f"  ... and {len(rows) - max_metrics} more")
    return "\n".join(lines)
