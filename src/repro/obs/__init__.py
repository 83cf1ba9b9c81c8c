"""repro.obs — the cross-cutting instrumentation layer.

One registry of counters, gauges, log-bucketed histograms, and
clock-sourced spans that every layer reports into: MTT labeling, batch
signing, the recorder's §7.5 CPU sections, retry/backoff delivery, the
transports, and the simulated links' §7.6 traffic.  The Section 7
experiments read it directly, and the exporters render one coherent
snapshot of a whole run (:mod:`repro.obs.export`,
:mod:`repro.obs.dump`).
"""

from .export import SCHEMA_VERSION, snapshot, to_prometheus
from .metrics import Counter, Gauge, Histogram, Span
from .registry import Registry, get_registry, set_registry, use_registry

__all__ = [
    "SCHEMA_VERSION", "snapshot", "to_prometheus",
    "Counter", "Gauge", "Histogram", "Span",
    "Registry", "get_registry", "set_registry", "use_registry",
]
