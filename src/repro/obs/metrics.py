"""Metric primitives: counters, gauges, log-bucketed histograms, spans.

These are the value cells of the :mod:`repro.obs` registry.  Each metric
is identified by a name plus a label set (see
:class:`~repro.obs.registry.Registry`); the objects here only hold and
update values, so incrementing on a hot path is one attribute update —
no dict lookup, no lock (CPython attribute updates on the hot counters
are atomic enough under the GIL, and every aggregate is read only at
snapshot time).

Histograms bucket observations by powers of two, the standard shape for
latency distributions: bucket ``i`` counts observations in
``[2**i, 2**(i+1))``.  That keeps the bucket map tiny (a handful of
entries spans nanoseconds to minutes) while preserving order-of-magnitude
resolution, which is all the Section 7 cost attribution needs.

Spans are explicit-clock trace records: the *owning component* supplies
the clock (the simulator's, a stepped clock, or wall time), so a trace
taken under the deterministic simulator is itself deterministic — the
same scripted run produces the same span timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Label sets are stored canonically as sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def canonical_labels(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum (counts or totals)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """A point-in-time level that also remembers its high-water mark.

    Queue depths, in-flight counts, pool widths: the instantaneous value
    answers "what is it now", the high-water mark answers "how bad did
    it get" (the §7 figures report peaks as well as averages).
    """

    __slots__ = ("name", "labels", "value", "high_water")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0
        self.high_water = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value, "high_water": self.high_water}


class Histogram:
    """Log-bucketed distribution: bucket ``i`` covers [2**i, 2**(i+1)).

    Non-positive observations land in a dedicated underflow bucket
    (``None`` key) so a zero-length batch or zero-delay retry is counted
    without poisoning the log scale.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "buckets")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: exponent -> count; None collects observations <= 0.
        self.buckets: Dict[Optional[int], int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0:
            exponent = math.frexp(value)[1] - 1  # 2**e <= value < 2**(e+1)
        else:
            exponent = None
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_bounds(self) -> List[Tuple[float, int]]:
        """Sorted (upper_bound, count) pairs; the underflow bucket's
        upper bound is 0."""
        items: List[Tuple[float, int]] = []
        for exponent, count in self.buckets.items():
            upper = 0.0 if exponent is None else float(2.0 **
                                                       (exponent + 1))
            items.append((upper, count))
        return sorted(items)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "buckets": [[bound, count]
                            for bound, count in self.bucket_bounds()]}


@dataclass(frozen=True)
class Span:
    """One clock-sourced trace record.

    ``start``/``end`` are read from the owning component's clock — the
    simulator clock, a stepped clock, or a wall clock — never from the
    machine's time directly, so simulated traces are reproducible.
    """

    name: str
    start: float
    end: float
    labels: Dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "labels": dict(self.labels)}
