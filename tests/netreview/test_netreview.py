"""Tests for the NetReview baseline: detection parity, full disclosure,
and the missing-MTT cost structure."""

import pytest

from repro.bgp.prefix import Prefix
from repro.core.verdict import FaultKind
from repro.faults.injector import install_import_filter, \
    tamper_log_entry
from repro.netreview.auditor import disclosure_bytes
from repro.netreview.node import NetReviewDeployment
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.obs.registry import use_registry
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind, TamperError
from repro.spider.node import evaluation_scheme

FEED = 65000
P = Prefix.parse("203.0.113.0/24")
GOOD = Prefix.parse("192.0.2.0/24")


def build(with_filter_fault=False, naive_promises=False):
    network = Network(figure5_topology())
    if naive_promises:
        # The paper's evaluation setup: one global path-length scheme and
        # a shortest-route promise to everyone.
        deployment = NetReviewDeployment(network,
                                         scheme=evaluation_scheme(10),
                                         config=SpiderConfig())
    else:
        # Promises provably consistent with Gao-Rexford export filtering.
        from repro.spider.promises import GaoRexfordPromises
        grp = GaoRexfordPromises(network.topology, max_length=8)
        deployment = NetReviewDeployment(network,
                                         config=SpiderConfig(),
                                         scheme_factory=grp.scheme_for,
                                         promise_factory=grp.promise_for)
    if with_filter_fault:
        install_import_filter(
            network.speaker(FOCUS_AS),
            lambda route, neighbor: neighbor == 7 and
            route.prefix == GOOD)
    network.attach_feed(INJECTION_AS, feed_asn=FEED)
    network.schedule_trace(FEED, [
        TraceEvent(1.0, P, (FEED, 4000)),
        TraceEvent(1.2, GOOD, (FEED, 4001, 4002, 9)),
    ])
    network.originate(9, GOOD)
    network.settle()
    return network, deployment


class TestHonestAudit:
    def test_clean(self):
        network, deployment = build()
        deployment.recorder(FOCUS_AS).make_commitment()
        for report in deployment.audit_all_neighbors(FOCUS_AS):
            assert report.ok, [str(f) for f in report.findings]

    def test_audits_cover_known_prefixes(self):
        network, deployment = build()
        report = deployment.audit(FOCUS_AS, auditor=7)
        assert report.prefixes_checked >= 2

    def test_epoch_markers_logged_without_mtt(self):
        network, deployment = build()
        record = deployment.recorder(FOCUS_AS).make_commitment()
        assert record.root == b""
        assert record.census_total == 0

    def test_no_mtt_cpu_section(self):
        """The §7.5 comparison: NetReview = SPIDeR minus MTT cost."""
        with use_registry() as registry:
            network, deployment = build()
            deployment.recorder(FOCUS_AS).make_commitment()
        cpu = registry.label_values("cpu_seconds_total", "section",
                                    node=f"as{FOCUS_AS}")
        assert "mtt" not in cpu
        assert cpu.get("signatures", 0) > 0


class TestNaivePromiseInconsistency:
    def test_naive_shortest_route_promise_conflicts_with_gao_rexford(self):
        """A 'shortest route to everyone' promise cannot coexist with
        valley-free export filtering (the §3.2 path-length caveat): a
        full-disclosure audit flags the suppressed exports."""
        network, deployment = build(naive_promises=True)
        reports = deployment.audit_all_neighbors(FOCUS_AS)
        findings = [f for r in reports for f in r.findings]
        assert findings  # provider-learned routes withheld from peers

    def test_gao_rexford_promises_resolve_it(self):
        network, deployment = build(naive_promises=False)
        reports = deployment.audit_all_neighbors(FOCUS_AS)
        assert all(r.ok for r in reports)


class TestDetectionParity:
    def test_filter_fault_detected_by_audit(self):
        """NetReview detects the same over-aggressive-filter fault SPIDeR
        does — by reading the victim's full log."""
        network, deployment = build(with_filter_fault=True)
        reports = deployment.audit_all_neighbors(FOCUS_AS)
        findings = [f for r in reports for f in r.findings]
        assert findings
        assert all(f.kind is FaultKind.BROKEN_PROMISE for f in findings)
        assert any(f.prefix == GOOD for f in findings)


class TestDisclosure:
    def test_audit_reveals_full_message_stream(self):
        """The privacy cost: every audit discloses the whole log —
        orders of magnitude more of the AS's private routing state than
        a SPIDeR proof reveals about *other* prefixes (nothing)."""
        network, deployment = build()
        report = deployment.audit(FOCUS_AS, auditor=7)
        log = deployment.recorder(FOCUS_AS).log
        assert report.disclosed_bytes == disclosure_bytes(log)
        assert report.disclosed_bytes > 0

    def test_disclosure_grows_with_traffic(self):
        network, deployment = build()
        before = disclosure_bytes(deployment.recorder(FOCUS_AS).log)
        network.schedule_trace(FEED, [
            TraceEvent(network.sim.now + 1.0,
                       Prefix.parse("198.51.100.0/24"),
                       (FEED, 4003)),
        ])
        network.settle()
        after = disclosure_bytes(deployment.recorder(FOCUS_AS).log)
        assert after > before

    def test_tampered_log_rejected_by_auditor(self):
        """A doctored payload at any index — same kind, same accounted
        size, chain value untouched — stops the audit before a route of
        that log is replayed."""
        network, deployment = build()
        deployment.recorder(FOCUS_AS).make_commitment()
        log = deployment.recorder(FOCUS_AS).log
        assert {e.kind for e in log} >= {
            EntryKind.RECV_ANNOUNCE, EntryKind.SENT_ANNOUNCE,
            EntryKind.SENT_ACK, EntryKind.RECV_ACK,
            EntryKind.COMMITMENT, EntryKind.CHECKPOINT}
        for position, entry in enumerate(list(log)):
            tampered = tamper_log_entry(log, position)
            assert tampered.payload != entry.payload
            assert (tampered.size_bytes, tampered.chain) == \
                (entry.size_bytes, entry.chain)
            with pytest.raises(TamperError, match=f"log entry "
                               f"{entry.index} breaks the hash chain"):
                deployment.audit(FOCUS_AS, auditor=7)
            log._entries[position] = entry
        assert deployment.audit(FOCUS_AS, auditor=7).ok
