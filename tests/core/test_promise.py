"""Tests for promises: partial orders, violations, Theorem 5, signing."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.policy import Relation
from repro.bgp.route import NULL_ROUTE
from repro.core.classes import ClassScheme, relation_scheme
from repro.core.promise import InconsistentPromiseError, Promise, \
    chain_promise, find_conflict, signed_promise, total_order_promise, \
    trivial_promise, verify_signed_promise
from repro.crypto.signatures import Signer

from .conftest import ELECTOR, make_route


def flat_scheme(k):
    return ClassScheme(labels=tuple(f"c{i}" for i in range(k)),
                       classify_fn=lambda r: 0)


class TestPromiseConstruction:
    def test_transitive_closure_computed(self):
        p = Promise(scheme=flat_scheme(3), order=frozenset({(0, 1), (1, 2)}))
        assert p.prefers(2, 0)

    def test_reflexive_pair_rejected(self):
        with pytest.raises(InconsistentPromiseError):
            Promise(scheme=flat_scheme(2), order=frozenset({(0, 0)}))

    def test_cycle_rejected(self):
        with pytest.raises(InconsistentPromiseError):
            Promise(scheme=flat_scheme(2),
                    order=frozenset({(0, 1), (1, 0)}))

    def test_indirect_cycle_rejected(self):
        with pytest.raises(InconsistentPromiseError):
            Promise(scheme=flat_scheme(3),
                    order=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_out_of_range_pair_rejected(self):
        for pair in ((0, 5), (5, 0), (-1, 1), (1, -1)):
            with pytest.raises(ValueError, match="out of range"):
                Promise(scheme=flat_scheme(2), order=frozenset({pair}))

    def test_trivial_promise_prefers_nothing(self):
        p = trivial_promise(flat_scheme(4))
        assert not any(p.prefers(i, j)
                       for i in range(4) for j in range(4))


class TestOrderQueries:
    def test_total_order_promise(self):
        p = total_order_promise(flat_scheme(4))
        assert p.prefers(3, 0)
        assert p.prefers(1, 0)
        assert not p.prefers(0, 1)
        assert p.classes_above(1) == (2, 3)
        assert p.classes_below(1) == (0,)

    def test_chain_promise_partial(self):
        # Order only classes 0 < 2; class 1 stays incomparable.
        p = chain_promise(flat_scheme(3), [0, 2])
        assert p.prefers(2, 0)
        assert not p.comparable(1, 0)
        assert not p.comparable(1, 2)
        assert p.comparable(0, 0)

    @given(st.integers(2, 6))
    def test_total_order_antisymmetric(self, k):
        p = total_order_promise(flat_scheme(k))
        for i in range(k):
            for j in range(k):
                if p.prefers(i, j):
                    assert not p.prefers(j, i)


def scanned_above(promise, c):
    """``classes_above`` as a scan over the whole closure."""
    return tuple(sorted(h for (l, h) in promise.order if l == c))


def scanned_below(promise, c):
    return tuple(sorted(l for (l, h) in promise.order if h == c))


@st.composite
def acyclic_orders(draw):
    """``(k, pairs)``: random acyclic generating pairs, k <= 12: pairs
    ranked along a random permutation can never close a cycle."""
    k = draw(st.integers(1, 12))
    rank = draw(st.permutations(range(k)))
    pairs = draw(st.sets(st.tuples(st.integers(0, k - 1),
                                   st.integers(0, k - 1))
                         .filter(lambda ij: ij[0] < ij[1]),
                         max_size=k * (k - 1) // 2))
    return k, frozenset((rank[i], rank[j]) for i, j in pairs)


@st.composite
def acyclic_promises(draw):
    """A promise over random acyclic generating pairs."""
    k, pairs = draw(acyclic_orders())
    return Promise(scheme=flat_scheme(k), order=pairs)


def assert_class_sets_match_the_scan(promise):
    k = promise.k
    for c in range(k):
        assert promise.classes_above(c) == scanned_above(promise, c)
        assert promise.classes_below(c) == scanned_below(promise, c)
    for unknown in (-1, k, k + 7):
        assert promise.classes_above(unknown) == ()
        assert promise.classes_below(unknown) == ()


class TestClassSets:
    """The classes above and below each class are sorted once and looked
    up after: they equal the closure scan they replaced, and the promise
    compares, hashes, prints and encodes as before."""

    #: SHA-512 prefixes of ``encode()`` at k = 50, as before the class
    #: sets existed: total order, the chain 0 < 3 < ... < 48, trivial.
    ENCODED = ("0409b57d1f18744effea29150afd3d9b558bce09",
               "ba1717285afd00bcd150a6092810bb3cbb427d15",
               "223aa2eae5be9d1ac80d679fb2ec1d3d633cf932")

    @staticmethod
    def k50_promises():
        scheme = flat_scheme(50)
        return (total_order_promise(scheme),
                chain_promise(scheme, list(range(0, 50, 3))),
                trivial_promise(scheme))

    @settings(max_examples=200, deadline=None)
    @given(acyclic_promises())
    def test_random_orders_match_the_scan(self, promise):
        assert_class_sets_match_the_scan(promise)

    def test_k50_constructors_match_the_scan(self):
        for promise in self.k50_promises():
            assert_class_sets_match_the_scan(promise)

    def test_identity_is_unchanged(self):
        assert [f.name for f in dataclasses.fields(Promise)] == \
            ["scheme", "order"]
        for promise, encoded in zip(self.k50_promises(), self.ENCODED):
            twin = Promise(scheme=promise.scheme, order=promise.order)
            before = (repr(promise), hash(promise), promise.encode())
            promise.classes_above(0)
            promise.classes_below(49)
            assert (repr(promise), hash(promise), promise.encode()) == \
                before
            assert promise == twin
            assert before == (repr(twin), hash(twin), twin.encode())
            assert hashlib.sha512(promise.encode()).hexdigest()[:40] == \
                encoded

    def test_replace_rebuilds_the_sets(self):
        p = total_order_promise(flat_scheme(4))
        assert p.classes_above(1) == (2, 3)
        q = dataclasses.replace(p, order=frozenset({(2, 1)}))
        assert q.classes_above(1) == ()
        assert q.classes_below(1) == (2,)
        assert q.classes_above(2) == (1,)
        assert p.classes_above(1) == (2, 3)


def dfs_closure(pairs):
    """The reachability closure as the promise computed it before the
    bit rows: a DFS from every class, kept as the reference."""
    successors = {}
    for lower, higher in pairs:
        successors.setdefault(lower, set()).add(higher)
    closure = set()
    for start in list(successors):
        seen = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        closure.update((start, target) for target in seen)
    return frozenset(closure)


@st.composite
def order_pairs(draw, max_k=12):
    """``(k, pairs)``: random irreflexive in-range pairs, cycles allowed."""
    k = draw(st.integers(2, max_k))
    pairs = draw(st.frozensets(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        .filter(lambda ij: ij[0] != ij[1]), max_size=2 * k))
    return k, pairs


class TestClosure:
    """The bit-row closure against the DFS it replaced: the same order
    on every acyclic set, a cycle wherever the DFS closure holds a pair
    both ways, and a closed set kept as it was given."""

    #: SHA-512 prefixes of ``signed_promise(...).signature`` by the
    #: elector's 512-bit test key at k = 50: total order, the chain
    #: 0 < 3 < ... < 48, trivial.
    SIGNED = ("804a7145a2eb9790fc2682f44c4a4e7b4aca28a3",
              "3adea435060c04ae8c8b4d32135c2daf6dd7d6ad",
              "a2fbbd7ff41b9968893a6a86672628fa2d40ab4e")

    @settings(max_examples=300, deadline=None)
    @given(acyclic_orders())
    def test_acyclic_orders_match_the_dfs(self, k_pairs):
        k, pairs = k_pairs
        order = Promise(scheme=flat_scheme(k), order=pairs).order
        assert order == dfs_closure(pairs)
        assert Promise(scheme=flat_scheme(k), order=order).order is order

    @settings(max_examples=300, deadline=None)
    @given(order_pairs())
    def test_cycles_are_where_the_dfs_finds_them(self, k_pairs):
        k, pairs = k_pairs
        reference = dfs_closure(pairs)
        cyclic = any((h, l) in reference for l, h in reference)
        if cyclic:
            with pytest.raises(InconsistentPromiseError,
                               match="cycle between classes"):
                Promise(scheme=flat_scheme(k), order=pairs)
        else:
            assert Promise(scheme=flat_scheme(k),
                           order=pairs).order == reference

    def test_a_closed_set_is_kept(self):
        for promise in TestClassSets.k50_promises():
            again = Promise(scheme=promise.scheme, order=promise.order)
            assert again.order is promise.order
        open_chain = frozenset({(0, 1), (1, 2)})
        assert Promise(scheme=flat_scheme(3), order=open_chain).order == \
            open_chain | {(0, 2)}

    def test_k50_signatures_are_pinned(self, identities):
        """``encode()`` is pinned in :class:`TestClassSets`."""
        signer = Signer(identities[ELECTOR])
        for promise, signed in zip(TestClassSets.k50_promises(),
                                   self.SIGNED):
            envelope = signed_promise(signer, promise)
            assert hashlib.sha512(envelope.signature).hexdigest()[:40] \
                == signed


class TestViolationSemantics:
    def test_violation_when_better_class_available(self, scheme):
        p = total_order_promise(scheme)
        customer = make_route(neighbor=1)
        peer = make_route(neighbor=2)
        assert p.is_violation(available=customer, exported=peer)

    def test_no_violation_within_one_class(self, scheme):
        p = total_order_promise(scheme)
        peer_a = make_route(neighbor=2)
        peer_b = make_route(neighbor=3)
        assert not p.is_violation(available=peer_a, exported=peer_b)

    def test_no_violation_when_incomparable(self, scheme):
        p = trivial_promise(scheme)
        assert not p.is_violation(available=make_route(neighbor=1),
                                  exported=make_route(neighbor=2))

    def test_exporting_null_when_route_owed_is_violation(self, scheme):
        p = total_order_promise(scheme)
        assert p.is_violation(available=make_route(neighbor=1),
                              exported=NULL_ROUTE)


class TestTheorem5:
    def test_conflicting_promises_found(self):
        scheme = flat_scheme(3)
        to_a = Promise(scheme=scheme, order=frozenset({(1, 2)}))
        to_b = Promise(scheme=scheme, order=frozenset({(2, 1)}))
        assert find_conflict([to_a, to_b]) is not None

    def test_consistent_promises_pass(self):
        scheme = flat_scheme(3)
        to_a = Promise(scheme=scheme, order=frozenset({(0, 1)}))
        to_b = Promise(scheme=scheme, order=frozenset({(0, 2)}))
        assert find_conflict([to_a, to_b]) is None

    def test_conflict_via_transitivity(self):
        scheme = flat_scheme(3)
        to_a = Promise(scheme=scheme, order=frozenset({(0, 1), (1, 2)}))
        to_b = Promise(scheme=scheme, order=frozenset({(2, 0)}))
        assert find_conflict([to_a, to_b]) == (0, 2)

    def test_mismatched_schemes_rejected(self):
        with pytest.raises(ValueError):
            find_conflict([trivial_promise(flat_scheme(2)),
                           trivial_promise(flat_scheme(3))])


class TestEncodingAndSigning:
    def test_encode_distinguishes_orders(self, scheme):
        assert total_order_promise(scheme).encode() != \
            trivial_promise(scheme).encode()

    def test_encode_stable(self, scheme):
        assert total_order_promise(scheme).encode() == \
            total_order_promise(scheme).encode()

    def test_signed_promise_roundtrip(self, registry, identities, scheme):
        promise = total_order_promise(scheme)
        envelope = signed_promise(Signer(identities[ELECTOR]), promise)
        assert verify_signed_promise(registry, ELECTOR, promise, envelope)

    def test_signed_promise_wrong_promise_rejected(self, registry,
                                                   identities, scheme):
        envelope = signed_promise(Signer(identities[ELECTOR]),
                                  total_order_promise(scheme))
        assert not verify_signed_promise(registry, ELECTOR,
                                         trivial_promise(scheme), envelope)

    def test_signed_promise_wrong_signer_rejected(self, registry,
                                                  identities, scheme):
        promise = total_order_promise(scheme)
        envelope = signed_promise(Signer(identities[1]), promise)
        assert not verify_signed_promise(registry, ELECTOR, promise,
                                         envelope)

    def test_str_mentions_labels(self, scheme):
        text = str(total_order_promise(scheme))
        assert "customer-routes" in text
