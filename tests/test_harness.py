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
from repro.spider.log import EntryKind
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
        # §7.7: a commitment entry is a 20 B seed, a 20 B root and 13 B
        # of framing, whatever the table size.
        log = replay.deployment.node(FOCUS_AS).recorder.log
        commitments = log.of_kind(EntryKind.COMMITMENT)
        assert {entry.size_bytes for entry in commitments} == {53}
        assert replay.commitment_bytes() == 53 * len(commitments)

    def test_proof_experiment_on_replay(self, replay):
        result = proof_experiment(replay)
        assert result.checks_ok
        assert result.single_prefix_bytes > 0
        assert len(result.per_neighbor_bytes) == 5

    def test_e9_traffic_is_pinned(self, replay):
        """E9's numbers at this scale, exactly: the rates over the
        replay window and each AS's SPIDeR bytes over the whole run (the
        codec bytes of every message sent) are deterministic, so any
        change in how they are counted shows."""
        assert replay.bgp_rate_bps() == 51199.99999999999
        assert replay.spider_rate_bps() == 811342.2222222221
        assert {asn: replay.traffic_bytes(asn, SPIDER_TRAFFIC)
                for asn in range(1, 11)} == {
            1: 0, 2: 220947, 3: 0, 4: 115905, 5: 298006, 6: 115905,
            7: 131628, 8: 131628, 9: 43066, 10: 43066}
        assert replay.signature_count == 61

    def test_e9_e10_bytes_are_pinned_at_bench_shape(self):
        """E9/E10 at scale 0.001, k = 10: the traffic by category, AS
        5's log (length and chain head), its replay-window bytes and
        the periodic commitment count.  Every one is a function of the
        messages the hosts exchange, so a change in how an AS is hosted
        that moves a byte shows here."""
        result = run_replay_experiment(scale=0.001, k=10, seed=42)
        by_category: dict = {}
        for (_node, category), nbytes in result.traffic.items():
            by_category[category] = by_category.get(category, 0) + nbytes
        # A category another test in this process sent under reads 0.
        by_category = {c: n for c, n in by_category.items() if n}
        assert by_category == {SPIDER_TRAFFIC: 2_197_276,
                               BGP_TRAFFIC: 265_732}
        log = result.deployment.node(FOCUS_AS).recorder.log
        assert len(log) == 4_442
        assert log.head.hex() == \
            "8443febde739eeb8bf84615a31a54e52efeffc7a"
        assert result.log_bytes_replay() == 175_661
        assert result.commitments_made == 14

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
