"""The instrumentation registry: one place every layer reports into.

Sections 7.5 and 7.6 of the paper attribute cost to categories — CPU
into signatures / MTT labeling / other, traffic into BGP vs. SPIDeR vs.
verification.  The registry is the one account of those numbers: the
recorder's CPU sections, the simulated links, the signer, the
transports and the retry loop write named metrics here, and the
experiments (:mod:`repro.harness.experiments`), the exporters
(:mod:`repro.obs.export`) and the cost table (:mod:`repro.obs.dump`) read
them back.  (§7.7's storage is the log's own entries:
:meth:`repro.spider.log.SpiderLog.bytes_by_kind`.)

The registry is **process-wide by default but explicitly injectable**:
components call :func:`get_registry` at construction unless handed a
:class:`Registry`, and :func:`use_registry` swaps the default within a
scope (the dump CLI and the benchmarks run workloads inside a fresh
registry so their snapshots are self-contained).

Metric identity is ``(name, labels)``: a series is keyed by what it
measures — the ``node`` ("as5") and the category — never by the object
writing it, so a component rebuilt for the same node (a restarted
runtime, a re-opened store) keeps adding to the series it had.
Aggregation happens at read time (:meth:`Registry.total`,
:meth:`Registry.label_values`); readers that want one run's share take
the difference of two reads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional, \
    Protocol, Tuple, Type, TypeVar, Union

from collections import deque

from .metrics import Counter, Gauge, Histogram, LabelSet, Span, \
    canonical_labels

Metric = Union[Counter, Gauge, Histogram]
Cells = TypeVar("Cells")


class ClockLike(Protocol):
    """Anything that tells time through a ``now`` property (seconds).

    Structural type shared across the codebase: the simulator clock,
    stepped clocks, skewed clocks, and the wall clock all satisfy it,
    so instrumented components stay deterministic whenever the clock
    they are handed is.
    """

    @property
    def now(self) -> float: ...

#: Spans kept per registry; older spans are dropped (a trace ring).
MAX_SPANS = 16384


class Registry:
    """A named collection of counters, gauges, histograms, and spans.

    Privacy model: label *values* passed to ``counter``/``gauge``/
    ``histogram``/``span`` are exported verbatim by the JSON and
    Prometheus dumps, so they are the ``obs-label`` public sink of
    spiderlint's SPDR006 (declared centrally in
    ``repro.analysis.contracts``): a policy internal, CSPRNG seed,
    blinding bitstring, or private key must never be used as a label
    value unless it first passed a commitment/proof/signature
    declassifier.
    """

    def __init__(self, max_spans: int = MAX_SPANS):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        self._cells: Dict[Callable[["Registry"], object], object] = {}
        self.spans: Deque[Span] = deque(maxlen=max_spans)

    # ------------------------------------------------------------------
    # Metric accessors (create on first use, return the shared cell)

    def _metric(self, factory: Type[Metric], name: str,
                labels: Dict[str, str]) -> Metric:
        key = (name, canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(name, key[1])
                    self._metrics[key] = metric
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, not {factory.kind}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._metric(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._metric(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._metric(Histogram, name, labels)

    def cells(self, kind: Callable[["Registry"], Cells]) -> Cells:
        """The one ``kind(self)`` of this registry, made on first use.

        A component that reports on a hot path keeps its metric cells
        here, bound once and shared by every instance of it that
        reports into this registry.
        """
        cells = self._cells.get(kind)
        if cells is None:
            made = kind(self)
            with self._lock:
                cells = self._cells.setdefault(kind, made)
        return cells  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Spans

    @contextmanager
    def span(self, name: str, clock: ClockLike,
             **labels: str) -> Iterator[None]:
        """Trace one operation with timestamps from ``clock.now``.

        ``clock`` is whatever the owning component keeps time with — the
        simulator clock, a stepped clock, or a wall clock — so the trace
        is deterministic whenever the clock is.
        """
        start = clock.now
        try:
            yield
        finally:
            self.record_span(Span(name=name, start=start, end=clock.now,
                                  labels=dict(labels)))

    def record_span(self, span: Span) -> None:
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Read side

    def metrics(self) -> List[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def _matching(self, name: str, match: Dict[str, str]
                  ) -> Iterator[Tuple[Dict[str, str], Metric]]:
        wanted = {(k, str(v)) for k, v in match.items()}
        for (metric_name, labels), metric in list(self._metrics.items()):
            if metric_name != name:
                continue
            if wanted and not wanted.issubset(set(labels)):
                continue
            yield dict(labels), metric

    def total(self, name: str, **match: str) -> float:
        """Sum of a counter/gauge family over every matching label set."""
        total = 0
        for _labels, metric in self._matching(name, match):
            total += metric.value
        return total

    def label_values(self, name: str, label: str,
                     **match: str) -> Dict[str, float]:
        """Aggregate a metric family by one label's values: e.g. CPU
        seconds by ``section`` for one node, or traffic bytes by
        ``category`` across the whole process."""
        out: Dict[str, float] = {}
        for labels, metric in self._matching(name, match):
            key = labels.get(label)
            if key is None:
                continue
            out[key] = out.get(key, 0) + metric.value
        return out


# ----------------------------------------------------------------------
# The process-wide default

_default_registry = Registry()


def get_registry() -> Registry:
    """The current default registry (process-wide unless swapped)."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: Optional[Registry] = None
                 ) -> Iterator[Registry]:
    """Run a block against a fresh (or given) default registry.

    Components capture the default at construction, so everything built
    inside the block reports into ``registry`` — the dump CLI and the
    benchmarks use this to produce self-contained snapshots.
    """
    registry = registry if registry is not None else Registry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
