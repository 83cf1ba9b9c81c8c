"""E10 — §7.7 'Overhead: Storage'.

Paper numbers at AS 5 after the replay period: 2.95 MB of logged message
data (24.4% signatures), growing at ~232.3 kB/minute; full routing
snapshots of ~94.1 MB; each commitment adds only 32 bytes (the CSPRNG
seed); one year of logs with daily snapshots fits in ~145.7 GB.
"""

import pytest

from repro.harness.reporting import format_bytes, render_table
from repro.netsim.topology import FOCUS_AS
from repro.spider.log import EntryKind


def test_log_growth_and_composition(benchmark, replay, emit):
    log_bytes = benchmark.pedantic(replay.log_bytes_replay, rounds=1,
                                   iterations=1)
    log = replay.deployment.node(FOCUS_AS).recorder.log
    window_entries = log.entries_between(replay.setup_end,
                                         replay.replay_end)
    # One 64-B signature per logged message: the simulated ASes sign
    # with SpiderDeployment's 512-bit keys.
    signature_share = (
        sum(1 for e in window_entries
            if e.kind not in (EntryKind.COMMITMENT,
                              EntryKind.CHECKPOINT)) * 64 / log_bytes
        if log_bytes else 0)
    rows = [
        ("log data (replay period)", "2.95 MB", format_bytes(log_bytes)),
        ("log growth rate", "232.3 kB/min",
         format_bytes(replay.log_rate_bytes_per_minute()) + "/min"),
        ("signature share of log", "24.4%", f"{signature_share:.0%}"),
    ]
    emit(render_table(
        f"§7.7 log storage at AS 5 (scale {replay.scale})",
        ["quantity", "paper", "measured"], rows))
    assert log_bytes > 0
    # Shape: signatures are a substantial minority of log volume.
    assert 0.05 < signature_share < 0.6


def test_snapshot_and_commitment_bytes(benchmark, replay, emit):
    benchmark(replay.snapshot_bytes)
    snapshot = replay.snapshot_bytes()
    commitments = replay.commitment_bytes()
    per_commitment = commitments / max(1, replay.commitments_made)
    rows = [
        ("routing snapshot", "94.1 MB", format_bytes(snapshot)),
        ("per-commitment MTT data", "32 B",
         format_bytes(per_commitment)),
    ]
    emit(render_table(
        "§7.7 snapshots and commitments",
        ["quantity", "paper", "measured"], rows))
    # Shape: the per-commitment cost is a constant few dozen bytes — the
    # seed only, independent of table size (the whole point of §6.5).
    assert per_commitment <= 48
    assert snapshot > 100 * per_commitment


def test_one_year_projection(benchmark, replay, emit):
    benchmark(replay.log_bytes_replay)
    """The paper's estimate: a year of logs + daily snapshots ≈ 145.7 GB.
    Scale our measured rates to paper scale (×1/scale) and project."""
    seconds_per_year = 365 * 24 * 3600
    scale_up = 1.0 / replay.scale
    log_rate = replay.log_bytes_replay() / \
        (replay.replay_end - replay.setup_end)
    yearly_log = log_rate * seconds_per_year  # already paper-rate: the
    # replay window and message count are both scaled by `scale`, so the
    # byte *rate* matches paper conditions up to message-size constants.
    yearly_snapshots = replay.snapshot_bytes() * scale_up * 365
    yearly_commitments = 32 * (seconds_per_year / 60)
    total = yearly_log + yearly_snapshots + yearly_commitments
    emit(render_table(
        "§7.7 one-year storage projection",
        ["component", "paper", "projected"],
        [("log (1 year)", "≈111 GB", format_bytes(yearly_log)),
         ("snapshots (365 daily)", "≈34 GB",
          format_bytes(yearly_snapshots)),
         ("commitment seeds", "≈17 MB", format_bytes(yearly_commitments)),
         ("total", "145.7 GB", format_bytes(total))]))
    # Shape: a year fits on commodity disks (our per-message encoding is
    # ~10-15x the paper's compact C++ one, so single-digit TB rather
    # than ~150 GB), and commitment seeds are a negligible sliver.
    assert total < 8e12
    assert yearly_commitments / total < 0.01


def test_log_chain_still_verifies_after_run(benchmark, replay):
    benchmark(replay.deployment.node(FOCUS_AS).recorder.log.verify_chain)
    replay.deployment.node(FOCUS_AS).recorder.log.verify_chain()
