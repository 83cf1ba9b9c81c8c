"""Metric primitives: counters, gauges, log-bucketed histograms, spans."""

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import Counter, Gauge, Histogram, Span, \
    canonical_labels


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_to_dict(self):
        counter = Counter("x", canonical_labels({"node": "as5"}))
        counter.inc(3)
        assert counter.to_dict() == {"name": "x",
                                     "labels": {"node": "as5"},
                                     "value": 3}


class TestGauge:
    def test_set_tracks_high_water(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 5


class TestHistogram:
    def test_powers_of_two_bucketing(self):
        histogram = Histogram("h")
        for value in (1.0, 1.5, 2.0, 3.99, 4.0):
            histogram.observe(value)
        bounds = dict(histogram.bucket_bounds())
        assert bounds[2.0] == 2   # [1, 2): 1.0, 1.5
        assert bounds[4.0] == 2   # [2, 4): 2.0, 3.99
        assert bounds[8.0] == 1   # [4, 8): 4.0

    def test_underflow_bucket(self):
        histogram = Histogram("h")
        histogram.observe(0.0)
        histogram.observe(-1.0)
        histogram.observe(0.5)
        bounds = dict(histogram.bucket_bounds())
        assert bounds[0.0] == 2   # non-positive observations
        assert bounds[1.0] == 1   # [0.5, 1)
        assert histogram.count == 3

    def test_summary_stats(self):
        histogram = Histogram("h")
        for value in (1.0, 3.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert Histogram("empty").mean == 0.0

    @given(st.lists(st.floats(min_value=1e-9, max_value=1e9),
                    min_size=1, max_size=50))
    def test_every_positive_observation_lands_in_its_bucket(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert sum(count for _b, count in histogram.bucket_bounds()) == \
            len(values)
        # Each bucket's upper bound is a power of two and every value
        # is strictly below the bound of the bucket it landed in.
        for value in values:
            upper = min(b for b, _c in histogram.bucket_bounds()
                        if b > value)
            assert value < upper <= 2 * value + 1e-9


class TestSpan:
    def test_duration(self):
        span = Span(name="commit", start=2.0, end=5.5)
        assert span.duration == pytest.approx(3.5)

    def test_to_dict(self):
        span = Span(name="commit", start=0.0, end=1.0,
                    labels={"node": "as5"})
        assert span.to_dict() == {"name": "commit", "start": 0.0,
                                  "end": 1.0, "labels": {"node": "as5"}}


def test_canonical_labels_sorted_and_stringified():
    assert canonical_labels({"b": 2, "a": "x"}) == \
        (("a", "x"), ("b", "2"))
