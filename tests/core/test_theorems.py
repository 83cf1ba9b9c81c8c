"""Property-based tests of the four VPref theorems (Section 4.6).

Random promises, random inputs, and random elector misbehaviors are driven
through :func:`repro.core.protocol.run_round`:

* **Verifiability** — every injected promise break is detected by at least
  one correct neighbor;
* **Evidence** — every PoM raised convinces the third-party validator;
* **Accuracy** — honest rounds never produce verdicts, and the validator
  rejects evidence fabricated against an honest elector;
* **Privacy** — what a neighbor sees reveals exactly the bits the paper
  says it may learn, and nothing distinguishes two routing states that
  BGP itself would not distinguish.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import NULL_ROUTE, Route
from repro.core.bits import available_classes, offer_conforms
from repro.core.classes import ClassScheme
from repro.core.elector import Behavior
from repro.core.promise import Promise
from repro.core.protocol import run_round
from repro.core.verdict import validate_pom

from .conftest import CONSUMERS, ELECTOR, PRODUCERS

PREFIX = Prefix.parse("203.0.113.0/24")
K = 4


def bucket_scheme(k=K):
    """Class of a route = its local_pref (mod k); ⊥ gets class 0."""
    def classify(route):
        if route is NULL_ROUTE:
            return 0
        return route.local_pref % k
    return ClassScheme(labels=tuple(f"tier-{i}" for i in range(k)),
                       classify_fn=classify)


SCHEME = bucket_scheme()


def route_in_class(neighbor, class_index):
    return Route(prefix=PREFIX, as_path=(neighbor, 900 + neighbor),
                 neighbor=neighbor, local_pref=class_index)


@st.composite
def promises_strategy(draw, k=K):
    """An acyclic promise: order pairs drawn consistently with a random
    permutation of the classes, so cycles are impossible."""
    perm = draw(st.permutations(range(k)))
    position = {cls: i for i, cls in enumerate(perm)}
    pairs = set()
    for low in range(k):
        for high in range(k):
            if position[low] < position[high] and draw(st.booleans()):
                pairs.add((low, high))
    return Promise(scheme=SCHEME, order=frozenset(pairs))


@st.composite
def inputs_strategy(draw):
    routes = {}
    for producer in PRODUCERS:
        if draw(st.booleans()):
            routes[producer] = route_in_class(
                producer, draw(st.integers(0, K - 1)))
        else:
            routes[producer] = NULL_ROUTE
    return routes


def run(registry, identities, routes, promises, behavior=None):
    return run_round(
        registry=registry, elector_identity=identities[ELECTOR],
        scheme=SCHEME,
        producer_identities={p: identities[p] for p in routes},
        producer_routes=routes,
        consumer_identities={c: identities[c] for c in promises},
        promises=promises,
        behavior=behavior or Behavior(),
    )


class TestAccuracyProperty:
    """Theorem 3: honest rounds are always clean."""

    @settings(max_examples=20, deadline=None)
    @given(inputs_strategy(),
           st.lists(promises_strategy(), min_size=2, max_size=2))
    # Choosing AS2's route (class 1) sets bit 3, which AS6's promise
    # ranks below class 1; AS7, offered ⊥, demands a 0-proof for class
    # 3.  Only AS3's route (class 2) is clean for both consumers.
    @example({1: NULL_ROUTE, 2: route_in_class(2, 1),
              3: route_in_class(3, 2)},
             [Promise(scheme=SCHEME, order=frozenset({(3, 1)})),
              Promise(scheme=SCHEME, order=frozenset({(0, 3), (1, 2)}))])
    def test_honest_round_clean(self, registry, identities, routes,
                                promise_list):
        promises = dict(zip(CONSUMERS, promise_list))
        # Skip the (legal but degenerate) inconsistent-promise case, where
        # no conforming offer may exist (Theorem 5).
        from repro.core.promise import find_conflict
        if find_conflict(promise_list) is not None:
            return
        result = run(registry, identities, routes, promises)
        assert result.clean, f"verdicts: {result.verdicts}"


class TestVerifiabilityProperty:
    """Theorem 1: a broken promise is always detected, and the evidence
    convinces a third party (Theorem 2)."""

    @settings(max_examples=20, deadline=None)
    @given(inputs_strategy(), promises_strategy(),
           st.integers(0, K - 1), st.data())
    def test_bad_offer_detected(self, registry, identities, routes,
                                promise, offer_class, data):
        promises = {c: promise for c in CONSUMERS}
        inputs = list(routes.values())
        # Construct a non-conforming offer: a route (or ⊥) whose class is
        # strictly below some available class under the promise.
        if offer_class == 0:
            offer = NULL_ROUTE
        else:
            offer = route_in_class(1, offer_class)
            routes = dict(routes)
            routes[1] = offer  # make it a real input
            inputs = list(routes.values())
        if offer_conforms(promise, inputs, offer):
            return  # not a violation for this draw; nothing to detect
        behavior = Behavior(offer_override={c: offer for c in CONSUMERS})
        result = run(registry, identities, routes, promises,
                     behavior=behavior)
        assert not result.clean
        consumer_detections = [v for v in result.verdicts
                               if v.detector in CONSUMERS]
        assert consumer_detections
        for verdict in result.poms():
            assert validate_pom(registry, SCHEME, verdict.pom)

    @settings(max_examples=20, deadline=None)
    @given(inputs_strategy(), promises_strategy())
    def test_hiding_an_input_detected_by_its_producer(
            self, registry, identities, routes, promise):
        real = {p: r for p, r in routes.items() if r is not NULL_ROUTE}
        if not real:
            return
        victim = min(real)
        victim_class = SCHEME.classify(real[victim])

        def hide(bits):
            tampered = list(bits)
            tampered[victim_class] = 0
            return tuple(tampered)

        promises = {c: promise for c in CONSUMERS}
        behavior = Behavior(bits_tamper=hide)
        result = run(registry, identities, routes, promises,
                     behavior=behavior)
        # Some producer whose route is in the victim class must detect.
        detectors = {v.detector for v in result.verdicts}
        producers_in_class = {p for p, r in real.items()
                              if SCHEME.classify(r) == victim_class}
        assert detectors & producers_in_class
        for verdict in result.poms():
            assert validate_pom(registry, SCHEME, verdict.pom)


class TestPrivacyProperty:
    """Theorem 4: neighbors learn nothing beyond their BGP view."""

    def _consumer_revealed_bits(self, registry, identities, routes,
                                promise):
        """What one consumer actually learns: (offer, proven bits)."""
        promises = {c: promise for c in CONSUMERS}
        result = run(registry, identities, routes, promises)
        return result.offers[CONSUMERS[0]]

    def test_consumer_view_independent_of_hidden_state(self, registry,
                                                       identities):
        """Two routing states that export the same route to the consumer
        produce identical revealed information: same offer, and 0-proofs
        for the same (promised-better) classes."""
        promise = Promise(scheme=SCHEME, order=frozenset({(1, 3)}))
        chosen = route_in_class(1, 3)
        # State A: only the chosen route. State B: extra hidden routes in
        # classes the promise says nothing about (0, 2).
        state_a = {1: chosen, 2: NULL_ROUTE, 3: NULL_ROUTE}
        state_b = {1: chosen, 2: route_in_class(2, 2),
                   3: route_in_class(3, 0)}
        offers = []
        for state in (state_a, state_b):
            promises = {c: promise for c in CONSUMERS}
            result = run(registry, identities, state, promises)
            assert result.clean
            offers.append(result.offers[CONSUMERS[0]])
        assert offers[0] == offers[1]

    def test_proofs_reveal_only_challenged_bits(self, registry,
                                                identities):
        """A consumer receives proofs only for classes its promise ranks
        above its offer — never for incomparable or lower classes."""
        from repro.core.elector import Elector
        promise = Promise(scheme=SCHEME, order=frozenset({(1, 3)}))
        elector = Elector(identities[ELECTOR], registry, SCHEME,
                          {CONSUMERS[0]: promise}, seed=b"s")
        from repro.core.producer import Producer
        producer = Producer(identities[1], registry, ELECTOR, SCHEME)
        elector.receive_advert(producer.advertise(route_in_class(1, 1)))
        elector.run_commitment_phase()
        proofs = elector.proofs_for_consumer(CONSUMERS[0],
                                             route_in_class(1, 1))
        assert [p.proof.index for p in proofs] == [3]

    def test_producer_with_null_input_learns_nothing(self, registry,
                                                     identities):
        from repro.core.elector import Elector
        from repro.core.producer import Producer
        elector = Elector(identities[ELECTOR], registry, SCHEME, {},
                          seed=b"s")
        producer = Producer(identities[1], registry, ELECTOR, SCHEME)
        elector.receive_advert(producer.advertise(NULL_ROUTE))
        elector.run_commitment_phase()
        assert elector.proofs_for_producer(1) == []

    def test_commitments_unlinkable_across_rounds(self, registry,
                                                  identities):
        """Identical routing state in two rounds yields different roots
        (fresh blinding), so an observer cannot tell whether state
        changed — the Section 5.3 freshness requirement."""
        promise = Promise(scheme=SCHEME, order=frozenset({(1, 3)}))
        routes = {1: route_in_class(1, 3)}
        promises = {c: promise for c in CONSUMERS}
        roots = set()
        for round_id, seed in enumerate((b"seed-1", b"seed-2")):
            result = run_round(
                registry=registry, elector_identity=identities[ELECTOR],
                scheme=SCHEME,
                producer_identities={1: identities[1]},
                producer_routes=routes,
                consumer_identities={c: identities[c] for c in promises},
                promises=promises, seed=seed, round_id=round_id,
            )
            roots.add(result.commitments[1].root)
        assert len(roots) == 2

    def test_producer_proof_confirms_only_its_own_input(self, registry,
                                                        identities):
        """The 1-proof a producer receives is for the class of its own
        route — information it already has (Theorem 4 proof sketch)."""
        from repro.core.elector import Elector
        from repro.core.producer import Producer
        elector = Elector(identities[ELECTOR], registry, SCHEME, {},
                          seed=b"s")
        producer = Producer(identities[1], registry, ELECTOR, SCHEME)
        mine = route_in_class(1, 2)
        elector.receive_advert(producer.advertise(mine))
        # Hidden state: another producer's route in class 3.
        producer2 = Producer(identities[2], registry, ELECTOR, SCHEME)
        elector.receive_advert(producer2.advertise(route_in_class(2, 3)))
        elector.run_commitment_phase()
        proofs = elector.proofs_for_producer(1)
        assert [p.proof.index for p in proofs] == [SCHEME.classify(mine)]
        assert all(p.proof.bit == 1 for p in proofs)
