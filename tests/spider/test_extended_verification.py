"""Tests for extended verification (§6.6): RE-ANNOUNCE round trips and
suppressed-withdrawal detection."""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.netsim.topology import FOCUS_AS
from repro.spider.extended import producer_reannounces, \
    run_extended_verification
from repro.spider.wire import SpiderAnnounce

from .conftest import P, Q


@pytest.fixture(scope="module")
def committed(deployment):
    network, dep = deployment
    record = dep.commit_now(FOCUS_AS)
    network.settle()
    return network, dep, record


class TestProducerReannounces:
    def test_one_per_exported_route(self, committed):
        network, dep, record = committed
        node7 = dep.node(7)
        messages = producer_reannounces(node7, FOCUS_AS,
                                        record.commit_time)
        exported = node7.recorder.state.exports.get(FOCUS_AS, {})
        assert len(messages) == len(exported)
        assert {m.prefix for m in messages} == set(exported)

    def test_marked_as_reannounce(self, committed):
        network, dep, record = committed
        messages = producer_reannounces(dep.node(7), FOCUS_AS,
                                        record.commit_time)
        assert all(m.reannounce for m in messages)
        assert all(m.timestamp == record.commit_time for m in messages)

    def test_validly_signed(self, committed):
        network, dep, record = committed
        messages = producer_reannounces(dep.node(7), FOCUS_AS,
                                        record.commit_time)
        assert all(m.valid(dep.registry) for m in messages)

    def test_suppression_drops_routes(self, committed):
        network, dep, record = committed
        all_messages = producer_reannounces(dep.node(7), FOCUS_AS,
                                            record.commit_time)
        if not all_messages:
            pytest.skip("AS 7 exports nothing to AS 5 in this workload")
        victim = all_messages[0].prefix
        fewer = producer_reannounces(dep.node(7), FOCUS_AS,
                                     record.commit_time,
                                     suppress=(victim,))
        assert len(fewer) == len(all_messages) - 1


class TestExtendedVerification:
    def test_honest_run_clean(self, committed):
        network, dep, record = committed
        result = run_extended_verification(dep, FOCUS_AS,
                                           record.commit_time)
        assert result.clean, \
            ([str(v) for v in result.verdicts],
             result.refusing_producers)

    def test_every_producer_reannounced(self, committed):
        network, dep, record = committed
        result = run_extended_verification(dep, FOCUS_AS,
                                           record.commit_time)
        node5 = dep.node(FOCUS_AS)
        for producer, table in node5.recorder.state.imports.items():
            if table:
                assert result.reannounces.get(producer, 0) >= len(table)

    def test_refusing_producer_identified(self, committed):
        network, dep, record = committed
        # AS 2 exports P and Q to AS 5; it refuses to re-announce P.
        exported = dep.node(2).recorder.state.exports.get(FOCUS_AS, {})
        victim = sorted(exported)[0]
        result = run_extended_verification(
            dep, FOCUS_AS, record.commit_time,
            producer_suppress={2: (victim,)})
        assert 2 in result.refusing_producers

    def test_suppressed_withdrawal_detected(self, committed):
        """The §6.6 attack: the producer withdrew a route, the elector
        kept announcing it.  The consumer still holds the stale route;
        extended verification finds no fresh RE-ANNOUNCE backing it."""
        network, dep, record = committed
        # Fabricate the consumer's stale holding: a route via AS 5 whose
        # underlying producer route (via AS 2) no longer exists.
        stale_prefix = Prefix.parse("172.16.0.0/12")
        stale_route = Route(prefix=stale_prefix,
                            as_path=(FOCUS_AS, 2, 4999),
                            neighbor=FOCUS_AS)
        result = run_extended_verification(
            dep, FOCUS_AS, record.commit_time,
            stale_exports={7: {stale_prefix: stale_route}})
        assert not result.clean
        assert any(v.detector == 7 and "RE-ANNOUNCE" in v.description
                   for v in result.verdicts)

    def test_elector_originated_routes_need_no_backing(self, committed):
        """Routes the elector originates itself have no upstream
        producer; consumers must not demand RE-ANNOUNCEs for them."""
        network, dep, record = committed
        origin_prefix = Prefix.parse("10.99.0.0/16")
        origin_route = Route(prefix=origin_prefix, as_path=(FOCUS_AS,),
                             neighbor=FOCUS_AS)
        result = run_extended_verification(
            dep, FOCUS_AS, record.commit_time,
            stale_exports={7: {origin_prefix: origin_route}})
        assert result.clean

    def test_no_commitment_rejected(self, deployment):
        network, dep = deployment
        from repro.netsim.network import Network
        from repro.netsim.topology import figure5_topology
        from repro.spider.config import SpiderConfig
        from repro.runtime.node_runtime import SpiderDeployment
        from repro.spider.node import evaluation_scheme
        net2 = Network(figure5_topology())
        dep2 = SpiderDeployment(net2, scheme=evaluation_scheme(5),
                                config=SpiderConfig())
        with pytest.raises(ValueError):
            run_extended_verification(dep2, FOCUS_AS)
