"""Registry exporters: JSON snapshots and Prometheus-style text.

Two formats cover the two consumers:

* :func:`snapshot` — a structured, JSON-serializable dump of every
  metric and span, which ``python -m repro.obs.dump`` renders as the
  §7 cost table or prints with ``--format json``;
* :func:`to_prometheus` — the text exposition format, one line per
  sample, for scraping a long-running deployment.

The snapshot layout is a stable schema (checked against
``tests/obs/golden_snapshot_schema.json`` in CI): top-level keys
``schema``, ``counters``, ``gauges``, ``histograms``, ``spans``; each
metric entry carries ``name``, ``labels``, and its kind-specific value
fields.  Bump :data:`SCHEMA_VERSION` when the layout changes, and update
the golden schema in the same commit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .metrics import Counter, Gauge, Histogram
from .registry import Registry, get_registry

#: Version tag embedded in every snapshot.
SCHEMA_VERSION = 1


def snapshot(registry: Optional[Registry] = None) -> Dict[str, Any]:
    """The registry's full state as a JSON-serializable dict."""
    registry = registry if registry is not None else get_registry()
    counters: List[Dict[str, Any]] = []
    gauges: List[Dict[str, Any]] = []
    histograms: List[Dict[str, Any]] = []
    for metric in registry.metrics():
        entry = metric.to_dict()
        if isinstance(metric, Counter):
            counters.append(entry)
        elif isinstance(metric, Gauge):
            gauges.append(entry)
        elif isinstance(metric, Histogram):
            histograms.append(entry)
    key = lambda entry: (entry["name"], sorted(entry["labels"].items()))
    return {
        "schema": SCHEMA_VERSION,
        "counters": sorted(counters, key=key),
        "gauges": sorted(gauges, key=key),
        "histograms": sorted(histograms, key=key),
        "spans": [span.to_dict() for span in registry.spans],
    }


# ----------------------------------------------------------------------
# Prometheus text exposition

def _label_str(labels: Dict[str, str], extra: Optional[Dict[str, str]]
               = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(merged.items()))
    return "{%s}" % inner


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def to_prometheus(registry: Optional[Registry] = None) -> str:
    """Render every metric in the Prometheus text format.

    Histograms follow the native convention: cumulative ``_bucket``
    samples with ``le`` labels, plus ``_sum`` and ``_count``.  Gauges
    additionally expose their high-water mark as ``<name>_high_water``.
    """
    registry = registry if registry is not None else get_registry()
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    metrics = sorted(registry.metrics(),
                     key=lambda m: (m.name, m.labels))
    for metric in metrics:
        name = _sanitize(metric.name)
        if name not in seen_types:
            prom_kind = ("histogram" if isinstance(metric, Histogram)
                         else metric.kind)
            lines.append(f"# TYPE {name} {prom_kind}")
            seen_types[name] = prom_kind
        labels = dict(metric.labels)
        if isinstance(metric, Counter):
            lines.append(f"{name}{_label_str(labels)} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"{name}{_label_str(labels)} {metric.value}")
            lines.append(f"{name}_high_water{_label_str(labels)} "
                         f"{metric.high_water}")
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in metric.bucket_bounds():
                cumulative += count
                lines.append(
                    f"{name}_bucket"
                    f"{_label_str(labels, {'le': repr(bound)})} "
                    f"{cumulative}")
            lines.append(f"{name}_bucket"
                         f"{_label_str(labels, {'le': '+Inf'})} "
                         f"{metric.count}")
            lines.append(f"{name}_sum{_label_str(labels)} {metric.sum}")
            lines.append(f"{name}_count{_label_str(labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + "\n"
