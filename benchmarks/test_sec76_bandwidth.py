"""E9 — §7.6 'Overhead: Bandwidth'.

Paper numbers at AS 5 during the replay period: BGP 11.8 kbps, SPIDeR
32.6 kbps (a 176% increase — "not very much, about 2% of a single
typical DSL upstream"); verifying 1% of commitments every minute would
add about 3.0 Mbps of proof traffic.
"""

import pytest

from repro.harness.reporting import format_rate, render_table
from repro.netsim.topology import FOCUS_AS


def test_bgp_vs_spider_rates(benchmark, replay, emit):
    bgp = benchmark.pedantic(replay.bgp_rate_bps, rounds=1, iterations=1)
    spider = replay.spider_rate_bps()
    increase = (spider - bgp) / bgp * 100 if bgp else float("inf")
    rows = [
        ("BGP rate", "11.8 kbps", format_rate(bgp)),
        ("SPIDeR rate", "32.6 kbps", format_rate(spider)),
        ("relative increase", "176%", f"{increase:.0f}%"),
    ]
    emit(render_table(
        f"§7.6 traffic at AS 5 (replay period, scale {replay.scale})",
        ["quantity", "paper", "measured"], rows))

    # Shape: SPIDeR re-announces everything with signatures and acks, so
    # it costs more than BGP — but by a small constant factor, not an
    # order of magnitude.
    assert bgp > 0
    assert 1.0 < spider / bgp < 20.0


def test_verification_traffic_estimate(benchmark, replay, proofs, emit):
    benchmark(replay.spider_rate_bps)
    """The paper's back-of-envelope: verifying 1% of commitments per
    minute ⇒ ~3.0 Mbps.  Reproduce the same arithmetic with our
    measured proof-set sizes, scaled per commitment interval."""
    total_proof_bytes = sum(proofs.per_neighbor_bytes.values())
    commitments_per_minute = 60.0 / replay.commit_interval
    rate_bps = total_proof_bytes * 8 * 0.01 * commitments_per_minute / 60
    emit(render_table(
        "§7.6 verification traffic (1% of commitments verified/min)",
        ["quantity", "paper", "measured"],
        [("proof bytes per full verification", "≈2.2 GB (5 × 449 MB)",
          total_proof_bytes),
         ("estimated verification traffic", "3.0 Mbps",
          format_rate(rate_bps))]))
    # Shape: verification traffic dwarfs the steady-state SPIDeR stream
    # when triggered (the reason verification is on-demand).
    full_verification_bits = total_proof_bytes * 8
    per_interval_spider_bits = replay.spider_rate_bps() * \
        replay.commit_interval
    assert full_verification_bits > per_interval_spider_bits


def test_spider_traffic_scales_with_neighbors(benchmark, replay):
    benchmark(lambda: None)
    """More neighbors ⇒ more re-announcements to sign and send."""
    from repro.spider.node import SPIDER_TRAFFIC
    hub = replay.traffic_bytes(2, SPIDER_TRAFFIC)    # 5 neighbors + feed
    leaf = replay.traffic_bytes(10, SPIDER_TRAFFIC)  # single-homed stub
    assert hub > leaf
