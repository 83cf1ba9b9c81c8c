"""Tests for the experiment harness and report formatting."""

import pytest

from repro.harness.experiments import ReplayResult, \
    flat_vs_mtt_experiment, labeling_experiment, mtt_size_experiment, \
    proof_experiment, run_replay_experiment
from repro.harness.reporting import format_bytes, format_rate, \
    ratio_note, render_table
from repro.obs.dump import cpu_attribution


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
            last_census=None)
        snap = {"counters": [
            {"name": "cpu_seconds_total", "labels": {"section": name},
             "value": seconds} for name, seconds in sections.items()]}
        assert replay.cpu_breakdown() == cpu_attribution(snap) == {
            "signatures": 3.0, "mtt": 2.0, "other": 2.5}


class TestReplayExperiment:
    @pytest.fixture(scope="class")
    def replay(self):
        return run_replay_experiment(scale=0.0005, k=5)

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
