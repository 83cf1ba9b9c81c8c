"""The registry: metric identity, aggregation, spans, injection."""

import pytest

from repro.netsim.clock import SimClock
from repro.obs.registry import Registry, get_registry, set_registry, \
    use_registry


class TestMetricIdentity:
    def test_same_name_and_labels_share_a_cell(self):
        registry = Registry()
        a = registry.counter("hits", node="as5")
        b = registry.counter("hits", node="as5")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_label_order_is_irrelevant(self):
        registry = Registry()
        a = registry.counter("hits", node="as5", category="bgp")
        b = registry.counter("hits", category="bgp", node="as5")
        assert a is b

    def test_different_labels_are_different_cells(self):
        registry = Registry()
        a = registry.counter("hits", node="as5")
        b = registry.counter("hits", node="as6")
        assert a is not b

    def test_kind_mismatch_raises(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestAggregation:
    def test_total_sums_across_label_sets(self):
        registry = Registry()
        registry.counter("bytes", node="as5").inc(10)
        registry.counter("bytes", node="as6").inc(5)
        assert registry.total("bytes") == 15
        assert registry.total("bytes", node="as5") == 10

    def test_label_values_groups_by_one_label(self):
        registry = Registry()
        registry.counter("bytes", node="as5", category="bgp").inc(10)
        registry.counter("bytes", node="as6", category="bgp").inc(7)
        registry.counter("bytes", node="as5", category="spider").inc(3)
        assert registry.label_values("bytes", "category") == \
            {"bgp": 17, "spider": 3}
        assert registry.label_values("bytes", "category", node="as5") == \
            {"bgp": 10, "spider": 3}

    def test_bound_cells_are_made_once(self):
        class Hits:
            def __init__(self, registry):
                self.cell = registry.counter("hits")

        registry = Registry()
        first = registry.cells(Hits)
        assert registry.cells(Hits) is first
        assert Registry().cells(Hits) is not first
        first.cell.inc()
        assert registry.total("hits") == 1


class TestSpans:
    def test_span_reads_the_given_clock(self):
        registry = Registry()
        clock = SimClock(10.0)
        with registry.span("commit", clock, node="as5"):
            clock.advance_to(12.5)
        assert len(registry.spans) == 1
        span = registry.spans[0]
        assert span.start == 10.0
        assert span.end == 12.5
        assert span.labels == {"node": "as5"}

    def test_span_recorded_even_on_exception(self):
        registry = Registry()
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with registry.span("boom", clock):
                raise RuntimeError("inside")
        assert len(registry.spans) == 1

    def test_ring_bounded(self):
        registry = Registry(max_spans=3)
        clock = SimClock()
        for i in range(5):
            with registry.span(f"s{i}", clock):
                pass
        assert [s.name for s in registry.spans] == ["s2", "s3", "s4"]


class TestInjection:
    def test_use_registry_swaps_and_restores(self):
        outer = get_registry()
        with use_registry() as inner:
            assert get_registry() is inner
            assert inner is not outer
        assert get_registry() is outer

    def test_use_registry_restores_on_exception(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry():
                raise RuntimeError("inside")
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        outer = get_registry()
        fresh = Registry()
        previous = set_registry(fresh)
        try:
            assert previous is outer
            assert get_registry() is fresh
        finally:
            set_registry(outer)
