"""Exporters: JSON snapshot schema (pinned by a golden file) and the
Prometheus text format."""

import json
import pathlib

from repro.netsim.clock import SimClock
from repro.obs.export import SCHEMA_VERSION, snapshot, to_prometheus
from repro.obs.registry import Registry

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_snapshot_schema.json")
    .read_text())


def populated_registry() -> Registry:
    registry = Registry()
    registry.counter("hits", node="as5").inc(3)
    registry.counter("hits", node="as6").inc(1)
    gauge = registry.gauge("depth", node="as5")
    gauge.set(7)
    gauge.set(2)
    histogram = registry.histogram("latency")
    for value in (0.5, 1.5, 3.0, 0.0):
        histogram.observe(value)
    clock = SimClock()
    with registry.span("commit", clock, node="as5"):
        clock.advance_to(2.0)
    return registry


class TestSnapshotSchema:
    """The snapshot layout is a contract: CI fails if the exporter
    drifts from the checked-in golden schema."""

    def test_schema_version_matches_golden(self):
        assert SCHEMA_VERSION == GOLDEN["schema_version"]
        assert snapshot(Registry())["schema"] == GOLDEN["schema_version"]

    def test_top_level_keys_match_golden(self):
        snap = snapshot(populated_registry())
        assert sorted(snap.keys()) == sorted(GOLDEN["top_level_keys"])

    def test_entry_keys_match_golden(self):
        snap = snapshot(populated_registry())
        assert snap["counters"] and snap["gauges"] and \
            snap["histograms"] and snap["spans"]
        for entry in snap["counters"]:
            assert sorted(entry.keys()) == GOLDEN["counter_keys"]
        for entry in snap["gauges"]:
            assert sorted(entry.keys()) == GOLDEN["gauge_keys"]
        for entry in snap["histograms"]:
            assert sorted(entry.keys()) == GOLDEN["histogram_keys"]
        for entry in snap["spans"]:
            assert sorted(entry.keys()) == GOLDEN["span_keys"]

    def test_entries_sorted_by_name_then_labels(self):
        snap = snapshot(populated_registry())
        keys = [(e["name"], sorted(e["labels"].items()))
                for e in snap["counters"]]
        assert keys == sorted(keys)

    def test_json_roundtrip(self):
        snap = snapshot(populated_registry())
        assert json.loads(json.dumps(snap)) == snap

    def test_values_survive_export(self):
        snap = snapshot(populated_registry())
        hits = {e["labels"]["node"]: e["value"]
                for e in snap["counters"] if e["name"] == "hits"}
        assert hits == {"as5": 3, "as6": 1}
        gauge = snap["gauges"][0]
        assert gauge["value"] == 2 and gauge["high_water"] == 7
        histogram = snap["histograms"][0]
        assert histogram["count"] == 4
        span = snap["spans"][0]
        assert span["start"] == 0.0 and span["end"] == 2.0


class TestPrometheus:
    def test_type_lines_and_samples(self):
        text = to_prometheus(populated_registry())
        assert "# TYPE hits counter" in text
        assert 'hits{node="as5"} 3' in text
        assert "# TYPE depth gauge" in text
        assert 'depth{node="as5"} 2' in text
        assert 'depth_high_water{node="as5"} 7' in text
        assert "# TYPE latency histogram" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = Registry()
        histogram = registry.histogram("latency")
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        text = to_prometheus(registry)
        assert 'latency_bucket{le="1.0"} 1' in text
        assert 'latency_bucket{le="2.0"} 2' in text
        assert 'latency_bucket{le="4.0"} 3' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text

    def test_one_type_line_per_family(self):
        text = to_prometheus(populated_registry())
        assert text.count("# TYPE hits counter") == 1

    def test_ends_with_newline(self):
        assert to_prometheus(Registry()).endswith("\n")
