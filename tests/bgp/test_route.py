"""Tests for routes, the null route, and canonical route encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.communities import NO_EXPORT, community
from repro.bgp.prefix import Prefix
from repro.bgp.route import DEFAULT_LOCAL_PREF, NULL_ROUTE, NullRoute, \
    Origin, Route, originate

P = Prefix.parse("203.0.113.0/24")


def route_strategy():
    prefixes = st.lists(st.integers(0, 1), max_size=32).map(
        lambda bits: Prefix.from_bits(tuple(bits)))
    paths = st.lists(st.integers(1, 65000), min_size=0, max_size=8,
                     unique=True).map(tuple)
    comms = st.frozensets(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        max_size=4)
    return st.builds(
        Route, prefix=prefixes, as_path=paths,
        neighbor=st.integers(0, 65000),
        local_pref=st.integers(-100, 1000),
        med=st.integers(0, 2**31 - 1),
        origin=st.sampled_from(list(Origin)),
        communities=comms,
        router_id=st.integers(0, 2**31 - 1),
    )


class TestNullRoute:
    def test_singleton(self):
        assert NullRoute() is NULL_ROUTE

    def test_falsy(self):
        assert not NULL_ROUTE

    def test_repr(self):
        assert repr(NULL_ROUTE) == "⊥"

    def test_distinct_encoding(self):
        assert NULL_ROUTE.to_bytes() != originate(P, 65001).to_bytes()


class TestRoute:
    def test_path_length_and_origin_as(self):
        r = Route(prefix=P, as_path=(3, 2, 1))
        assert r.path_length == 3
        assert r.origin_as == 1

    def test_empty_path_origin_as_is_none(self):
        assert Route(prefix=P, as_path=()).origin_as is None

    def test_loop_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Route(prefix=P, as_path=(1, 2, 1))

    def test_traverses(self):
        r = Route(prefix=P, as_path=(3, 2, 1))
        assert r.traverses(2)
        assert not r.traverses(9)

    def test_prepended_grows_path_and_resets_local_attrs(self):
        r = Route(prefix=P, as_path=(2, 1), local_pref=200, med=50)
        exported = r.prepended(3)
        assert exported.as_path == (3, 2, 1)
        assert exported.local_pref == DEFAULT_LOCAL_PREF
        assert exported.med == 0

    def test_prepended_rejects_loop(self):
        with pytest.raises(ValueError):
            Route(prefix=P, as_path=(2, 1)).prepended(1)

    def test_community_evolution(self):
        tag = community(65001, 80)
        r = Route(prefix=P, as_path=(1,)).with_communities(tag, NO_EXPORT)
        assert tag in r.communities and NO_EXPORT in r.communities
        r2 = r.without_communities(NO_EXPORT)
        assert NO_EXPORT not in r2.communities and tag in r2.communities

    def test_with_local_pref_is_pure(self):
        r = Route(prefix=P, as_path=(1,))
        r2 = r.with_local_pref(80)
        assert r.local_pref == DEFAULT_LOCAL_PREF
        assert r2.local_pref == 80

    def test_originate_helper(self):
        r = originate(P, 65001)
        assert r.as_path == (65001,)
        assert r.neighbor == 0
        assert r.origin is Origin.IGP

    def test_str_is_informative(self):
        text = str(Route(prefix=P, as_path=(3, 2, 1), local_pref=120))
        assert "203.0.113.0/24" in text and "3 2 1" in text


class TestEncoding:
    def test_known_roundtrip(self):
        r = Route(prefix=P, as_path=(3, 2, 1), neighbor=3, local_pref=120,
                  med=10, origin=Origin.EGP,
                  communities=frozenset({community(65001, 80)}),
                  router_id=7)
        decoded = Route.from_bytes(r.to_bytes(), neighbor=3)
        assert decoded == r

    @given(route_strategy())
    def test_roundtrip_property(self, r):
        assert Route.from_bytes(r.to_bytes(), neighbor=r.neighbor) == r

    @given(route_strategy(), route_strategy())
    def test_encoding_injective(self, a, b):
        # Canonical encoding must distinguish routes that differ in any
        # attribute except the receiver-local neighbor field.
        if a.to_bytes() == b.to_bytes():
            assert a == b or \
                a == Route.from_bytes(b.to_bytes(), neighbor=a.neighbor)

    def test_trailing_garbage_rejected(self):
        data = Route(prefix=P, as_path=(1,)).to_bytes() + b"x"
        with pytest.raises(ValueError):
            Route.from_bytes(data)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            Route.from_bytes(b"\x00")

    @pytest.mark.parametrize("tags", [
        [(65001, 80), (65000, 90)],    # swapped
        [(65001, 80), (65001, 80)],    # repeated
    ], ids=["swapped", "repeated"])
    def test_non_canonical_communities_rejected(self, tags):
        """``to_bytes`` writes the set sorted, so any other order or a
        repeat is a second encoding of one route, and is refused."""
        head = Route(prefix=P, as_path=(1,)).to_bytes()[:-2]
        data = head + len(tags).to_bytes(2, "big") + b"".join(
            a.to_bytes(2, "big") + b.to_bytes(2, "big") for a, b in tags)
        with pytest.raises(ValueError):
            Route.from_bytes(data)

    @given(route_strategy(), st.data())
    def test_every_truncation_raises_value_error(self, r, data):
        """Cutting a valid encoding anywhere must fail as ValueError —
        never IndexError (regression: truncating just before the origin
        byte used to index past the end) and never a silent misparse
        from a short slice decoding as a smaller integer."""
        encoded = r.to_bytes()
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(ValueError):
            Route.from_bytes(encoded[:cut])
