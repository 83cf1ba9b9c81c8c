"""The cost-attribution dump: §7 aggregation and the CLI entry point."""

import json
import pathlib

import pytest

from repro.obs.dump import cpu_attribution, main, render_cost_table, \
    scenario_snapshot, traffic_attribution

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent /
     "golden_snapshot_schema.json").read_text())


def fabricated_snapshot() -> dict:
    return {
        "schema": 1,
        "counters": [
            {"name": "cpu_seconds_total",
             "labels": {"section": "handling"}, "value": 5.0},
            {"name": "cpu_seconds_total",
             "labels": {"section": "signatures"}, "value": 3.0},
            {"name": "cpu_seconds_total",
             "labels": {"section": "mtt"}, "value": 2.0},
            {"name": "cpu_seconds_total",
             "labels": {"section": "proofgen"}, "value": 0.5},
            {"name": "traffic_bytes_total",
             "labels": {"category": "bgp"}, "value": 100},
            {"name": "traffic_bytes_total",
             "labels": {"category": "spider"}, "value": 300},
        ],
        "gauges": [], "histograms": [], "spans": [],
    }


class TestAttribution:
    def test_cpu_categories(self):
        cpu = cpu_attribution(fabricated_snapshot())
        assert cpu["signatures"] == 3.0
        assert cpu["mtt"] == 2.0
        # other = (handling - nested signatures) + non-standard sections
        assert cpu["other"] == pytest.approx(2.5)

    def test_handling_below_signatures_clamps_to_zero(self):
        snap = {"schema": 1, "counters": [
            {"name": "cpu_seconds_total",
             "labels": {"section": "handling"}, "value": 1.0},
            {"name": "cpu_seconds_total",
             "labels": {"section": "signatures"}, "value": 4.0},
        ], "gauges": [], "histograms": [], "spans": []}
        assert cpu_attribution(snap)["other"] == 0.0

    def test_traffic_and_storage(self):
        """Traffic by category; storage is no registry metric (§7.7 is
        the log's own entries), so the table has no §7.7 block."""
        snap = fabricated_snapshot()
        assert traffic_attribution(snap) == {"bgp": 100, "spider": 300}
        assert "§7.7" not in render_cost_table(snap)


class TestRenderedTable:
    def test_sections_present(self):
        text = render_cost_table(fabricated_snapshot())
        assert "CPU attribution (paper §7.5)" in text
        assert "signatures" in text and "mtt" in text and "other" in text
        assert "Traffic by category (paper §7.6)" in text

    def test_shares_sum_to_hundred(self):
        text = render_cost_table(fabricated_snapshot())
        assert "100.0 %" in text


class TestScenarioSnapshot:
    """Acceptance: one loopback run of the two-node scenario yields a
    snapshot whose CPU shares render in the §7.5 categories."""

    @pytest.fixture(scope="class")
    def snap(self):
        return scenario_snapshot()

    def test_cpu_attribution_is_nontrivial(self, snap):
        cpu = cpu_attribution(snap)
        assert set(cpu) == {"signatures", "mtt", "other"}
        assert cpu["signatures"] > 0
        assert cpu["mtt"] > 0

    def test_exchange_metrics_present(self, snap):
        names = {entry["name"] for entry in snap["counters"]}
        assert "signatures_made_total" in names
        assert "mtt_hashes_total" in names
        assert "transport_frames_sent_total" in names
        assert "delivery_acks_matched_total" in names
        gauge_names = {entry["name"] for entry in snap["gauges"]}
        assert "delivery_pending" in gauge_names

    def test_commitment_spans_recorded(self, snap):
        commits = [s for s in snap["spans"] if s["name"] == "commitment"]
        assert len(commits) == 2  # one per node
        nodes = {s["labels"]["node"] for s in commits}
        assert nodes == {"as11", "as12"}

    def test_table_renders(self, snap):
        text = render_cost_table(snap)
        assert "CPU attribution (paper §7.5)" in text
        assert "Signature operations" in text


class TestCli:
    def test_live_json_matches_the_golden_schema(self, capsys):
        assert main(["--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == GOLDEN["schema_version"]
        assert sorted(snap) == sorted(GOLDEN["top_level_keys"])
        for kind, keys in (("counters", "counter_keys"),
                           ("gauges", "gauge_keys"),
                           ("histograms", "histogram_keys"),
                           ("spans", "span_keys")):
            assert snap[kind], kind
            for entry in snap[kind]:
                assert sorted(entry) == GOLDEN[keys], kind
        assert cpu_attribution(snap)["mtt"] > 0

    def test_live_prom(self, capsys):
        assert main(["--format", "prom"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# TYPE cpu_seconds_total counter" in lines
        # One series per node and section, whatever wrote to it.
        assert sorted(line.split(" ")[0] for line in lines
                      if line.startswith("cpu_seconds_total{")) == [
            f'cpu_seconds_total{{node="{node}",section="{section}"}}'
            for node in ("as11", "as12")
            for section in ("handling", "mtt", "signatures")]

    def test_live_table(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "CPU attribution (paper §7.5)" in out
        assert "Signature operations" in out
