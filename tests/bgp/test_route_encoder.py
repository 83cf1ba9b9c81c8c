"""``Route.to_bytes`` against the byte-by-byte encoder it replaced.

The encoding is what a peer signs, so one struct ``pack`` per path
length must give the bytes the field-by-field ``bytearray`` gave, for
every path length the one-byte count holds, and fail the way it failed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.communities import encode_community
from repro.bgp.prefix import Prefix
from repro.bgp.route import Origin, Route

I32_MIN, I32_MAX = -2**31, 2**31 - 1
U32_MAX = 2**32 - 1


def reference_to_bytes(route):
    """The encoder as it was: one field at a time into a bytearray."""
    out = bytearray()
    out += route.prefix.to_bytes()
    out += bytes([len(route.as_path)])
    for asn in route.as_path:
        out += asn.to_bytes(4, "big")
    out += route.local_pref.to_bytes(4, "big", signed=True)
    out += route.med.to_bytes(4, "big")
    out += bytes([route.origin])
    out += route.router_id.to_bytes(4, "big")
    tags = sorted(route.communities)
    out += len(tags).to_bytes(2, "big")
    for tag in tags:
        out += encode_community(tag)
    return bytes(out)


def u32s():
    return st.one_of(st.sampled_from([0, 1, U32_MAX - 1, U32_MAX]),
                     st.integers(0, U32_MAX))


prefixes = st.lists(st.integers(0, 1), max_size=32).map(
    lambda bits: Prefix.from_bits(tuple(bits)))
routes = st.builds(
    Route,
    prefix=prefixes,
    as_path=st.lists(u32s(), max_size=255, unique=True).map(tuple),
    neighbor=u32s(),
    local_pref=st.one_of(st.sampled_from([I32_MIN, -1, 0, I32_MAX]),
                         st.integers(I32_MIN, I32_MAX)),
    med=u32s(),
    origin=st.sampled_from(list(Origin)),
    communities=st.frozensets(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        max_size=8),
    router_id=u32s(),
)


def route(**fields):
    base = dict(prefix=Prefix.parse("198.51.100.0/24"), as_path=(7, 9))
    base.update(fields)
    return Route(**base)


class TestSameBytes:
    @given(routes)
    @settings(deadline=None)
    def test_equals_the_reference_and_round_trips(self, r):
        encoded = r.to_bytes()
        assert encoded == reference_to_bytes(r)
        assert Route.from_bytes(encoded, neighbor=r.neighbor) == r

    def test_every_path_length_the_count_holds(self):
        for hops in range(256):
            r = route(as_path=tuple(range(U32_MAX, U32_MAX - hops, -1)),
                      communities=frozenset({(65000, 1), (1, 65000)}))
            assert r.to_bytes() == reference_to_bytes(r)
            assert Route.from_bytes(r.to_bytes()) == r


class TestSameErrors:
    def test_a_256_hop_path_is_a_value_error(self):
        r = route(as_path=tuple(range(1, 257)))
        for encode in (reference_to_bytes, Route.to_bytes):
            with pytest.raises(ValueError):
                encode(r)

    @pytest.mark.parametrize("fields", [
        dict(local_pref=I32_MAX + 1), dict(local_pref=I32_MIN - 1),
        dict(med=U32_MAX + 1), dict(med=-1),
        dict(router_id=U32_MAX + 1), dict(router_id=-1),
        dict(as_path=(7, U32_MAX + 1)), dict(as_path=(-1,)),
        dict(communities=frozenset({(0x10000, 1)})),
        dict(communities=frozenset({(1, -1)})),
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_an_out_of_range_field_is_an_overflow_error(self, fields):
        r = route(**fields)
        # A struct.error would escape pytest.raises and fail the test.
        for encode in (reference_to_bytes, Route.to_bytes):
            with pytest.raises(OverflowError):
                encode(r)
