"""Tests for the relation-aware Gao-Rexford promise construction."""

import pytest

from repro.bgp.policy import Relation
from repro.bgp.prefix import Prefix
from repro.bgp.route import NULL_ROUTE, Route
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider.config import SpiderConfig
from repro.runtime.node_runtime import SpiderDeployment
from repro.spider.promises import GaoRexfordPromises, GaoRexfordScheme

P = Prefix.parse("203.0.113.0/24")

RELATIONS = {2: Relation.PROVIDER, 4: Relation.PROVIDER,
             6: Relation.PROVIDER, 7: Relation.CUSTOMER,
             8: Relation.CUSTOMER}


@pytest.fixture(scope="module")
def bundle():
    return GaoRexfordScheme(elector=5, relations=RELATIONS, max_length=4)


def via(first_hop, length):
    path = (first_hop,) + tuple(range(900, 900 + length - 1))
    return Route(prefix=P, as_path=path, neighbor=first_hop)


class TestScheme:
    def test_class_count(self, bundle):
        # 5 neighbor groups + origin group, 4 lengths each, plus ⊥.
        assert bundle.scheme.k == 1 + 6 * 4

    def test_null_class(self, bundle):
        assert bundle.scheme.classify(NULL_ROUTE) == 0

    def test_groups_split_by_first_hop(self, bundle):
        assert bundle.scheme.classify(via(7, 2)) != \
            bundle.scheme.classify(via(8, 2))

    def test_shorter_is_higher_within_group(self, bundle):
        assert bundle.scheme.classify(via(7, 1)) > \
            bundle.scheme.classify(via(7, 3))

    def test_origin_routes_have_their_own_group(self, bundle):
        origin = Route(prefix=P, as_path=(5,), neighbor=0)
        index = bundle.scheme.classify(origin)
        assert bundle.scheme.labels[index] == "origin-length-1"

    def test_overlong_falls_to_null_class(self, bundle):
        assert bundle.scheme.classify(via(7, 9)) == 0

    def test_foreign_first_hop_unusable(self, bundle):
        assert bundle.scheme.classify(via(42, 2)) == 0

    def test_labels_human_readable(self, bundle):
        assert "via7-length-2" in bundle.scheme.labels


class TestPromiseToCustomer:
    def test_true_preference_promised(self, bundle):
        promise = bundle.promise_for(8)
        scheme = bundle.scheme
        # Customer routes (via 7) beat provider routes (via 2) of any
        # length — the local-pref tier dominates.
        assert promise.prefers(scheme.classify(via(7, 4)),
                               scheme.classify(via(2, 1)))
        # Within a tier, shorter wins.
        assert promise.prefers(scheme.classify(via(2, 1)),
                               scheme.classify(via(2, 3)))

    def test_same_tier_same_length_indifferent(self, bundle):
        promise = bundle.promise_for(8)
        scheme = bundle.scheme
        a = scheme.classify(via(2, 2))
        b = scheme.classify(via(4, 2))
        assert not promise.comparable(a, b) or a == b

    def test_routes_through_consumer_unordered(self, bundle):
        """BGP never exports a route back through its own path, so the
        promise to AS 8 says nothing about via-8 classes."""
        promise = bundle.promise_for(8)
        scheme = bundle.scheme
        via8 = scheme.classify(via(8, 1))
        for other in range(scheme.k):
            if other != via8:
                assert not promise.comparable(via8, other)


class TestPromiseToProvider:
    def test_only_customer_tier_ordered(self, bundle):
        promise = bundle.promise_for(2)
        scheme = bundle.scheme
        # Customer-tier classes are ordered among themselves...
        assert promise.prefers(scheme.classify(via(7, 1)),
                               scheme.classify(via(8, 3)))
        # ...but provider-tier classes are never promised to a provider.
        provider_class = scheme.classify(via(4, 1))
        customer_class = scheme.classify(via(7, 3))
        assert not promise.comparable(provider_class, customer_class)

    def test_null_route_unconstrained(self, bundle):
        """Export filtering toward a provider is always legitimate."""
        promise = bundle.promise_for(2)
        scheme = bundle.scheme
        null_class = scheme.classify(NULL_ROUTE)
        for index in range(scheme.k):
            assert not promise.prefers(index, null_class) or True
        # Specifically: no customer class is promised *above* ⊥.
        assert not promise.prefers(scheme.classify(via(7, 1)),
                                   null_class)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def deployment(self):
        network = Network(figure5_topology())
        grp = GaoRexfordPromises(network.topology, max_length=8)
        deployment = SpiderDeployment(
            network, config=SpiderConfig(),
            scheme_factory=grp.scheme_for,
            promise_factory=grp.promise_for)
        network.attach_feed(INJECTION_AS, feed_asn=65000)
        network.schedule_trace(65000, [
            TraceEvent(1.0, P, (65000, 4000)),
        ])
        network.originate(9, Prefix.parse("192.0.2.0/24"))
        network.originate(3, Prefix.parse("198.51.100.0/24"))
        network.settle()
        return network, deployment

    def test_full_watch_verification_clean(self, deployment):
        """With Gao-Rexford promises, verification stays clean even when
        every neighbor watches every prefix it knows about — export
        filtering and loop suppression are correctly exempted."""
        network, dep = deployment
        for elector in network.topology.ases:
            dep.commit_now(elector)
            watch = {}
            for neighbor in network.topology.neighbors(elector):
                speaker = network.speakers.get(neighbor)
                if speaker is not None:
                    watch[neighbor] = sorted(speaker.loc_rib.prefixes())
            outcomes = dep.verify(elector, watch=watch)
            for outcome in outcomes:
                assert outcome.report.ok, \
                    (f"AS{outcome.neighbor} vs AS{elector}: "
                     f"{[str(v) for v in outcome.report.verdicts]}")

    def test_per_elector_schemes_differ(self, deployment):
        network, dep = deployment
        scheme5 = dep.node(5).recorder.scheme
        scheme2 = dep.node(2).recorder.scheme
        assert scheme5.labels != scheme2.labels
