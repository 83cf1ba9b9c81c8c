"""Tests for the experiment harness and report formatting."""

import pytest

from repro.harness.experiments import ReplayResult, \
    flat_vs_mtt_experiment, labeling_experiment, mtt_size_experiment, \
    proof_experiment, run_replay_experiment
from repro.harness.reporting import format_bytes, format_rate, \
    ratio_note, render_table
from repro.netsim.network import BGP_TRAFFIC, Network
from repro.netsim.topology import FOCUS_AS
from repro.obs.dump import cpu_attribution
from repro.spider.node import SPIDER_TRAFFIC
from repro.traces.routeviews import TraceConfig, synthetic_trace

#: The replay below: small enough for tier-1.
SCALE, K, SEED = 0.0005, 5, 42


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table("Title", ["a", "bb"], [(1, 2.5), (30, "x")])
        lines = text.splitlines()
        assert lines[0] == "== Title =="
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_render_table_formats_numbers(self):
        text = render_table("t", ["v"], [(1234567,), (0.12345,)])
        assert "1,234,567" in text
        assert "0.1234" in text or "0.1235" in text

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 kB"
        assert format_bytes(3 * 1024 ** 3) == "3.0 GB"

    def test_format_rate(self):
        assert format_rate(500) == "500.0 bps"
        assert format_rate(12_000) == "12.0 kbps"
        assert format_rate(3_000_000) == "3.0 Mbps"

    def test_ratio_note(self):
        note = ratio_note(2.0, 4.0)
        assert "ratio 0.50" in note
        assert "paper" in note
        assert ratio_note(1.0, 0.0).endswith("(paper: 0)")


class TestMttSizeExperiment:
    def test_small_run(self):
        result = mtt_size_experiment(n_prefixes=100, k=3)
        assert result.census.prefix == 100
        assert result.census.bit == 300
        assert result.build_seconds >= 0

    def test_projection_scales_prefix_count(self):
        result = mtt_size_experiment(n_prefixes=100, k=3)
        projected = result.scaled_to_paper()
        assert projected.prefix == 389_653


class TestLabelingExperiment:
    def test_small_run(self):
        result = labeling_experiment(n_prefixes=100, k=3)
        assert result.sequential_seconds > 0
        assert result.hash_count > 0


class TestFlatVsMtt:
    def test_commitment_sizes(self):
        result = flat_vs_mtt_experiment(n_prefixes=50, k=5)
        assert result.flat_commitment_bytes == 50 * 20
        assert result.mtt_commitment_bytes == 20


class TestCpuSplit:
    def test_replay_breakdown_and_dump_agree(self):
        """§7.5's split is stated once: a replay's breakdown and the
        dump's attribution of the same sections are equal, a section
        outside the recorder's three included."""
        sections = {"handling": 5.0, "signatures": 3.0, "mtt": 2.0,
                    "proofgen": 0.5}
        replay = ReplayResult(
            scale=0.0, k=0, commit_interval=0.0, trace=None,
            network=None, deployment=None, setup_end=0.0, replay_end=0.0,
            commitments_made=0, cpu_sections=sections, signature_count=0,
            last_census=None, window_traffic={}, traffic={})
        snap = {"counters": [
            {"name": "cpu_seconds_total", "labels": {"section": name},
             "value": seconds} for name, seconds in sections.items()]}
        assert replay.cpu_breakdown() == cpu_attribution(snap) == {
            "signatures": 3.0, "mtt": 2.0, "other": 2.5}


class TestReplayExperiment:
    @pytest.fixture(scope="class")
    def replay(self):
        return run_replay_experiment(scale=SCALE, k=K, seed=SEED)

    def test_commitments_made(self, replay):
        assert replay.commitments_made > 0
        assert replay.last_census is not None

    def test_cpu_breakdown_keys(self, replay):
        breakdown = replay.cpu_breakdown()
        assert set(breakdown) == {"signatures", "mtt", "other"}
        assert all(v >= 0 for v in breakdown.values())
        assert replay.cpu_total() == pytest.approx(
            sum(breakdown.values()))

    def test_netreview_is_spider_minus_mtt(self, replay):
        assert replay.netreview_cpu() == pytest.approx(
            replay.cpu_total() - replay.cpu_breakdown()["mtt"])

    def test_rates_positive(self, replay):
        assert replay.bgp_rate_bps() > 0
        assert replay.spider_rate_bps() > replay.bgp_rate_bps()

    def test_storage_accounting(self, replay):
        assert replay.log_bytes_replay() > 0
        assert replay.snapshot_bytes() > 0
        per_commit = replay.commitment_bytes() / replay.commitments_made
        assert per_commit <= 48

    def test_proof_experiment_on_replay(self, replay):
        result = proof_experiment(replay)
        assert result.checks_ok
        assert result.single_prefix_bytes > 0
        assert len(result.per_neighbor_bytes) == 5

    def test_e9_traffic_is_pinned(self, replay):
        """E9's numbers at this scale, exactly: the rates over the
        replay window and each AS's SPIDeR bytes over the whole run are
        deterministic, so any change in how they are counted shows."""
        assert replay.bgp_rate_bps() == 51199.99999999999
        assert replay.spider_rate_bps() == 296373.3333333333
        assert {asn: replay.traffic_bytes(asn, SPIDER_TRAFFIC)
                for asn in range(1, 11)} == {
            1: 0, 2: 104616, 3: 0, 4: 53418, 5: 134816, 6: 53418,
            7: 57075, 8: 57075, 9: 18430, 10: 18430}
        assert replay.signature_count == 61

    def test_the_replay_window_is_half_open(self, replay, monkeypatch):
        """A byte AS 5 sends at exactly setup_end is in the window, one
        sent at exactly replay_end is not, so adjacent windows tile
        without counting a boundary byte twice."""
        trace = synthetic_trace(TraceConfig(scale=SCALE, seed=SEED))
        schedule_trace = Network.schedule_trace

        def with_boundary_sends(network, feed_asn, events):
            schedule_trace(network, feed_asn, events)
            for at, nbytes in ((trace.setup_end, 1000),
                               (trace.replay_end, 7)):
                network.sim.at(at, lambda n=nbytes: network.record_traffic(
                    FOCUS_AS, BGP_TRAFFIC, n))

        monkeypatch.setattr(Network, "schedule_trace", with_boundary_sends)
        edged = run_replay_experiment(scale=SCALE, k=K, seed=SEED)
        window = trace.replay_end - trace.setup_end
        assert edged.bgp_rate_bps() - replay.bgp_rate_bps() == \
            pytest.approx(1000 * 8 / window)
        assert edged.traffic_bytes(FOCUS_AS, BGP_TRAFFIC) - \
            replay.traffic_bytes(FOCUS_AS, BGP_TRAFFIC) == 1007
