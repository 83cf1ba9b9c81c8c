"""Tests for incremental deployment (§6.7) and the SPIDeR-level
commitment cross-check."""

import pytest

from repro.bgp.prefix import Prefix
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider.config import SpiderConfig
from repro.spider.node import SpiderDeployment, evaluation_scheme

P = Prefix.parse("203.0.113.0/24")
GOOD = Prefix.parse("192.0.2.0/24")

#: The §6.7 minimal island: "one AS that has made some of the promises
#: ... and two customers or peers of that AS".
ISLAND = (5, 7, 8)


def build_island(participants=ISLAND):
    network = Network(figure5_topology())
    deployment = SpiderDeployment(
        network, scheme=evaluation_scheme(10),
        config=SpiderConfig(), participants=participants)
    network.attach_feed(INJECTION_AS, feed_asn=65000)
    network.schedule_trace(65000, [TraceEvent(1.0, P, (65000, 4000))])
    network.originate(9, GOOD)
    network.settle()
    return network, deployment


class TestIncrementalDeployment:
    def test_only_participants_have_nodes(self):
        network, deployment = build_island()
        assert set(deployment.nodes) == set(ISLAND)
        assert deployment.participants == ISLAND

    def test_bgp_unaffected_outside_island(self):
        network, deployment = build_island()
        # Non-participants still route normally.
        assert network.speaker(2).best(P) is not None
        assert network.speaker(10).best(GOOD) is not None

    def test_island_messages_only_flow_inside(self):
        network, deployment = build_island()
        node5 = deployment.node(FOCUS_AS)
        # AS 5's SPIDeR imports only cover participating neighbors.
        assert set(node5.recorder.state.imports) <= set(ISLAND)

    def test_island_verification_works(self):
        network, deployment = build_island()
        deployment.commit_now(FOCUS_AS)
        outcomes = deployment.verify(FOCUS_AS)
        # Only deployed neighbors participate, and they come back clean.
        assert {o.neighbor for o in outcomes} <= {7, 8}
        assert all(o.report.ok for o in outcomes)

    def test_island_detects_violations_within_subset(self):
        """§6.7: the island can still 'detect and prove violations of
        promises that involve inputs and outputs from that subset'."""
        from repro.faults.injector import install_import_filter, \
            install_inbound_drop
        network = Network(figure5_topology())
        deployment = SpiderDeployment(
            network, scheme=evaluation_scheme(10),
            config=SpiderConfig(), participants=ISLAND)
        install_inbound_drop(deployment.node(FOCUS_AS).recorder, 7,
                             prefixes={GOOD})
        install_import_filter(
            network.speaker(FOCUS_AS),
            lambda route, neighbor: neighbor == 7 and
            route.prefix == GOOD)
        network.originate(9, GOOD)
        network.settle()
        deployment.commit_now(FOCUS_AS)
        outcomes = deployment.verify(FOCUS_AS)
        detections = [o for o in outcomes if not o.report.ok]
        assert any(o.neighbor == 7 for o in detections)

    def test_growing_the_island(self):
        """Adding a participant extends coverage (islands grow at their
        perimeter)."""
        network, deployment = build_island(participants=(5, 7, 8, 2))
        deployment.commit_now(FOCUS_AS)
        outcomes = deployment.verify(FOCUS_AS)
        assert {o.neighbor for o in outcomes} == {2, 7, 8}
        assert all(o.report.ok for o in outcomes)


class TestCommitmentCrossCheck:
    def test_consistent_commitments_yield_no_pom(self):
        network, deployment = build_island(
            participants=tuple(range(1, 11)))
        record = deployment.commit_now(FOCUS_AS)
        network.settle()
        poms = deployment.cross_check_commitments(FOCUS_AS,
                                                  record.commit_time)
        assert poms == []

    def test_equivocation_yields_transferable_pom(self):
        from repro.faults.injector import install_equivocation
        from repro.spider.evidence import commitment_equivocation_valid
        network = Network(figure5_topology())
        deployment = SpiderDeployment(
            network, scheme=evaluation_scheme(10),
            config=SpiderConfig())
        install_equivocation(deployment.node(FOCUS_AS).recorder, {8})
        network.originate(9, GOOD)
        network.settle()
        record = deployment.commit_now(FOCUS_AS)
        network.settle()
        poms = deployment.cross_check_commitments(FOCUS_AS,
                                                  record.commit_time)
        assert poms
        for pom in poms:
            assert pom.accused == FOCUS_AS
            assert commitment_equivocation_valid(deployment.registry,
                                                 pom)
