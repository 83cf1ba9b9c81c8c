"""Kitchen-sink integration: the whole stack on a larger random network.

One scenario exercises every layer together: a CAIDA-like 30-AS topology
running Gao-Rexford policy, SPIDeR deployed with per-elector
relation-aware promises, multiple originated prefixes, periodic
commitments, full verification with watch sets, extended verification,
a fault injection, and the NetReview baseline auditing the same victim.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.faults.injector import install_import_filter, \
    install_inbound_drop
from repro.netsim.network import Network
from repro.netsim.topology import caida_like_topology
from repro.spider.config import SpiderConfig
from repro.spider.extended import run_extended_verification
from repro.runtime.node_runtime import SpiderDeployment
from repro.spider.promises import GaoRexfordPromises

PREFIXES = [Prefix.parse(f"198.51.{i}.0/24") for i in range(4)]


@pytest.fixture(scope="module")
def world():
    topology = caida_like_topology(n_ases=30, seed=11)
    network = Network(topology)
    grp = GaoRexfordPromises(topology, max_length=8)
    deployment = SpiderDeployment(
        network, config=SpiderConfig(commit_interval=60.0),
        scheme_factory=grp.scheme_for, promise_factory=grp.promise_for)
    # Originate prefixes at scattered stubs.
    origins = [topology.ases[-1], topology.ases[-5], topology.ases[7],
               topology.ases[2]]
    for prefix, origin in zip(PREFIXES, origins):
        network.originate(origin, prefix)
    network.settle()
    return topology, network, deployment


def hub_of(topology):
    """A well-connected AS to use as the verification target."""
    return max(topology.ases, key=topology.degree)


class TestFullStack:
    def test_routes_converged(self, world):
        topology, network, deployment = world
        for prefix in PREFIXES:
            reached = sum(
                1 for asn in topology.ases
                if network.speaker(asn).best(prefix) is not None)
            assert reached == len(topology.ases)

    def test_every_as_verifies_clean(self, world):
        topology, network, deployment = world
        for elector in topology.ases:
            deployment.commit_now(elector)
            outcomes = deployment.verify(elector)
            for outcome in outcomes:
                assert outcome.report.ok, \
                    (f"AS{outcome.neighbor} vs AS{elector}: "
                     f"{[str(v) for v in outcome.report.verdicts]}")

    def test_hub_verification_with_full_watch_sets(self, world):
        topology, network, deployment = world
        hub = hub_of(topology)
        deployment.commit_now(hub)
        watch = {
            neighbor: sorted(network.speaker(neighbor).loc_rib.prefixes())
            for neighbor in topology.neighbors(hub)
        }
        outcomes = deployment.verify(hub, watch=watch)
        assert all(o.report.ok for o in outcomes)

    def test_extended_verification_clean(self, world):
        topology, network, deployment = world
        hub = hub_of(topology)
        record = deployment.commit_now(hub)
        result = run_extended_verification(deployment, hub,
                                           record.commit_time)
        assert result.clean

    def test_log_chains_everywhere(self, world):
        topology, network, deployment = world
        for node in deployment.nodes.values():
            node.recorder.log.verify_chain()


class TestFaultOnRandomTopology:
    def test_filter_fault_detected_on_caida_like_graph(self):
        """The §7.4 fault transplanted off the toy topology: a random
        hub filters a customer route; that customer detects it."""
        topology = caida_like_topology(n_ases=30, seed=11)
        hub = max(topology.ases, key=topology.degree)
        customers = [n for n in topology.neighbors(hub)
                     if topology.relations_of(hub)[n].value == "customer"]
        if not customers:
            pytest.skip("hub has no customers in this draw")
        victim = customers[0]
        prefix = PREFIXES[0]

        network = Network(topology)
        grp = GaoRexfordPromises(topology, max_length=8)
        deployment = SpiderDeployment(
            network, config=SpiderConfig(commit_interval=60.0),
            scheme_factory=grp.scheme_for,
            promise_factory=grp.promise_for)
        install_inbound_drop(deployment.node(hub).recorder, victim,
                             prefixes={prefix})
        install_import_filter(
            network.speaker(hub),
            lambda route, neighbor: neighbor == victim and
            route.prefix == prefix)
        network.originate(victim, prefix)
        network.settle()
        deployment.commit_now(hub)
        outcomes = deployment.verify(hub)
        detections = {o.neighbor for o in outcomes if not o.report.ok}
        assert victim in detections

    def test_netreview_audit_agrees(self):
        """NetReview, on the same fault, reaches the same verdict by
        reading the victim hub's full log."""
        from repro.netreview.node import NetReviewDeployment
        topology = caida_like_topology(n_ases=30, seed=11)
        hub = max(topology.ases, key=topology.degree)
        customers = [n for n in topology.neighbors(hub)
                     if topology.relations_of(hub)[n].value == "customer"]
        if not customers:
            pytest.skip("hub has no customers in this draw")
        victim, prefix = customers[0], PREFIXES[0]

        network = Network(topology)
        grp = GaoRexfordPromises(topology, max_length=8)
        deployment = NetReviewDeployment(
            network, config=SpiderConfig(),
            scheme_factory=grp.scheme_for,
            promise_factory=grp.promise_for)
        install_import_filter(
            network.speaker(hub),
            lambda route, neighbor: neighbor == victim and
            route.prefix == prefix)
        network.originate(victim, prefix)
        network.settle()
        reports = deployment.audit_all_neighbors(hub)
        findings = [f for r in reports for f in r.findings]
        assert any(f.prefix == prefix for f in findings)
