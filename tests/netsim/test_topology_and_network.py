"""Tests for topologies and the end-to-end BGP network simulation."""

import pytest

from repro.bgp.policy import Relation
from repro.bgp.prefix import Prefix
from repro.netsim.network import BGP_TRAFFIC, Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, Topology, \
    caida_like_topology, degree_distribution, figure5_topology, \
    share_with_degree_at_most
from repro.obs.registry import use_registry

P = Prefix.parse("203.0.113.0/24")


class TestTopology:
    def test_add_link_stores_both_directions(self):
        topology = Topology()
        topology.add_link(1, 2, Relation.CUSTOMER)
        assert topology.relations[(1, 2)] is Relation.CUSTOMER
        assert topology.relations[(2, 1)] is Relation.PROVIDER

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Topology().add_link(1, 1)

    def test_neighbors_and_degree(self):
        topology = Topology()
        topology.add_link(1, 2)
        topology.add_link(1, 3)
        assert topology.neighbors(1) == (2, 3)
        assert topology.degree(1) == 2
        assert topology.degree(2) == 1

    def test_relations_of(self):
        topology = Topology()
        topology.add_link(5, 7, Relation.CUSTOMER)
        topology.add_link(4, 5, Relation.CUSTOMER)
        assert topology.relations_of(5) == {7: Relation.CUSTOMER,
                                            4: Relation.PROVIDER}

    def test_validate_detects_corruption(self):
        topology = Topology()
        topology.add_link(1, 2, Relation.CUSTOMER)
        topology.relations[(2, 1)] = Relation.CUSTOMER  # corrupt
        with pytest.raises(ValueError):
            topology.validate()


class TestFigure5:
    def test_ten_ases(self):
        assert len(figure5_topology().ases) == 10

    def test_focus_as_has_five_neighbors(self):
        assert figure5_topology().degree(FOCUS_AS) == 5

    def test_injection_as_present(self):
        topology = figure5_topology()
        assert INJECTION_AS in topology.ases

    def test_relations_consistent(self):
        figure5_topology().validate()

    def test_connected(self):
        topology = figure5_topology()
        seen = {1}
        frontier = [1]
        while frontier:
            asn = frontier.pop()
            for neighbor in topology.neighbors(asn):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert seen == set(topology.ases)


class TestCaidaLike:
    def test_dominated_by_low_degree_ases(self):
        topology = caida_like_topology(n_ases=800, seed=1)
        share = share_with_degree_at_most(topology, 5)
        # §7.5: "89% of the current Internet ASes have five or fewer
        # neighbors" — the generator should land in that regime.
        assert 0.80 <= share <= 0.97

    def test_deterministic_given_seed(self):
        a = caida_like_topology(n_ases=200, seed=3)
        b = caida_like_topology(n_ases=200, seed=3)
        assert a.edges == b.edges

    def test_heavy_tail_exists(self):
        topology = caida_like_topology(n_ases=800, seed=1)
        histogram = degree_distribution(topology)
        assert max(histogram) >= 20  # some AS is a large hub

    def test_size_parameter(self):
        assert len(caida_like_topology(n_ases=150, seed=2).ases) == 150

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            caida_like_topology(n_ases=2)


class TestNetworkPropagation:
    def test_origination_reaches_everyone(self):
        network = Network(figure5_topology())
        network.originate(9, P)  # stub at the bottom
        network.settle()
        for asn, speaker in network.speakers.items():
            assert speaker.best(P) is not None, f"AS {asn} has no route"

    def test_paths_are_loop_free(self):
        network = Network(figure5_topology())
        network.originate(9, P)
        network.settle()
        for speaker in network.speakers.values():
            path = speaker.best(P).as_path
            assert len(set(path)) == len(path)

    def test_routing_consistency_after_convergence(self):
        network = Network(figure5_topology())
        network.originate(9, P)
        network.settle()
        assert network.routing_consistent()

    def test_withdrawal_propagates(self):
        network = Network(figure5_topology())
        network.originate(9, P)
        network.settle()
        network.withdraw_origin(9, P)
        network.settle()
        for asn, speaker in network.speakers.items():
            assert speaker.best(P) is None, f"AS {asn} kept a stale route"

    def test_traffic_metered(self):
        with use_registry() as registry:
            network = Network(figure5_topology())
            network.originate(9, P)
            network.settle()
        assert registry.total("traffic_bytes_total", node="as9",
                              category=BGP_TRAFFIC) > 0

    def test_valley_free_paths(self):
        """No path should go customer→provider after provider→customer."""
        topology = figure5_topology()
        network = Network(topology)
        network.originate(9, P)
        network.settle()
        for asn, speaker in network.speakers.items():
            route = speaker.best(P)
            hops = (asn,) + route.as_path
            if hops[0] == hops[1]:
                hops = hops[1:]  # the originator itself
            # Classify each adjacent pair; once we go "down" (to a
            # customer, as seen from the traffic direction) we may not
            # go "up" again.
            went_down = False
            for a, b in zip(hops, hops[1:]):
                rel = topology.relations[(a, b)]
                if rel is Relation.CUSTOMER:
                    went_down = True
                elif went_down and rel is Relation.PROVIDER:
                    pytest.fail(f"valley in path {hops} at {a}->{b}")


class TestExternalFeed:
    def test_feed_injection(self):
        network = Network(figure5_topology())
        network.attach_feed(INJECTION_AS, feed_asn=65000)
        events = [TraceEvent(time=1.0, prefix=P, path=(65000, 4000, 4001))]
        network.schedule_trace(65000, events)
        network.settle()
        assert network.speaker(INJECTION_AS).best(P) is not None
        # The provider-learned route reaches AS 2's customers (AS 5).
        assert network.speaker(FOCUS_AS).best(P) is not None

    def test_feed_withdrawal(self):
        network = Network(figure5_topology())
        network.attach_feed(INJECTION_AS, feed_asn=65000)
        network.schedule_trace(65000, [
            TraceEvent(time=1.0, prefix=P, path=(65000, 4000)),
            TraceEvent(time=2.0, prefix=P, path=None),
        ])
        network.settle()
        assert network.speaker(FOCUS_AS).best(P) is None

    def test_feed_asn_collision_rejected(self):
        network = Network(figure5_topology())
        with pytest.raises(ValueError):
            network.attach_feed(INJECTION_AS, feed_asn=5)

    def test_unattached_feed_rejected(self):
        network = Network(figure5_topology())
        with pytest.raises(ValueError):
            network.schedule_trace(65000, [])

    def test_path_auto_prepended_with_feed(self):
        network = Network(figure5_topology())
        network.attach_feed(INJECTION_AS, feed_asn=65000)
        network.schedule_trace(65000, [
            TraceEvent(time=1.0, prefix=P, path=(4000,)),
        ])
        network.settle()
        route = network.speaker(INJECTION_AS).best(P)
        assert route.as_path[0] == 65000
