"""Tests for IPv4 prefixes, including the MTT bit-path mapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.prefix import MAX_PREFIX_LEN, Prefix, PrefixError


def bits_strategy():
    return st.lists(st.integers(0, 1), max_size=MAX_PREFIX_LEN).map(tuple)


class TestParse:
    def test_parse_basic(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.address == 10 << 24
        assert p.length == 8

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("1.2.3.4").length == 32

    def test_parse_default_route(self):
        p = Prefix.parse("0.0.0.0/0")
        assert (p.address, p.length) == (0, 0)

    def test_str_round_trip(self):
        for text in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24",
                     "128.0.0.0/1", "255.255.255.255/32"]:
            assert str(Prefix.parse(text)) == text

    @pytest.mark.parametrize("bad", [
        "10.0.0/8", "10.0.0.0.0/8", "256.0.0.0/8", "10.0.0.0/33",
        "10.0.0.0/-1", "a.b.c.d/8", "10.0.0.0/x",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            Prefix.parse(bad)

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/8")

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(PrefixError):
            Prefix(address=1 << 32, length=32)
        with pytest.raises(PrefixError):
            Prefix(address=0, length=33)


class TestBits:
    def test_paper_figure4_prefixes(self):
        # Figure 4 uses 0/2, 160/3 and 128/1; 160.0.0.0/3 is 101 in base 2.
        assert Prefix.parse("0.0.0.0/2").bits() == (0, 0)
        assert Prefix.parse("160.0.0.0/3").bits() == (1, 0, 1)
        assert Prefix.parse("128.0.0.0/1").bits() == (1,)

    def test_bits_roundtrip_known(self):
        p = Prefix.parse("192.168.0.0/16")
        assert Prefix.from_bits(p.bits()) == p

    @given(bits_strategy())
    def test_bits_roundtrip_property(self, bits):
        assert Prefix.from_bits(bits).bits() == bits

    def test_from_bits_rejects_bad_bit(self):
        with pytest.raises(PrefixError):
            Prefix.from_bits((0, 2))

    def test_from_bits_rejects_too_long(self):
        with pytest.raises(PrefixError):
            Prefix.from_bits((0,) * 33)

    def test_iter_bits_matches_bits(self):
        p = Prefix.parse("160.0.0.0/3")
        assert tuple(p.iter_bits()) == p.bits()


class TestContainment:
    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").contains(
            Prefix.parse("10.1.0.0/16"))

    def test_does_not_contain_less_specific(self):
        assert not Prefix.parse("10.1.0.0/16").contains(
            Prefix.parse("10.0.0.0/8"))

    def test_contains_self(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains(p)

    def test_disjoint(self):
        assert not Prefix.parse("10.0.0.0/8").contains(
            Prefix.parse("11.0.0.0/8"))

    def test_default_contains_everything(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains(Prefix.parse("203.0.113.0/24"))

    def test_parent(self):
        assert Prefix.parse("10.0.0.0/8").parent() == \
            Prefix.parse("10.0.0.0/7")
        assert Prefix.parse("128.0.0.0/1").parent() == \
            Prefix.parse("0.0.0.0/0")

    def test_parent_clears_freed_bit(self):
        # 1.0.0.0/8 -> /7 must clear the 8th bit: 0.0.0.0/7.
        assert Prefix.parse("1.0.0.0/8").parent() == \
            Prefix.parse("0.0.0.0/7")

    def test_default_has_no_parent(self):
        with pytest.raises(PrefixError):
            Prefix.parse("0.0.0.0/0").parent()

    @given(bits_strategy().filter(lambda b: len(b) > 0))
    def test_parent_contains_child_property(self, bits):
        child = Prefix.from_bits(bits)
        assert child.parent().contains(child)


class TestEncoding:
    @given(bits_strategy())
    def test_bytes_roundtrip(self, bits):
        p = Prefix.from_bits(bits)
        assert Prefix.from_bytes(p.to_bytes()) == p

    def test_encoding_is_5_bytes(self):
        assert len(Prefix.parse("10.0.0.0/8").to_bytes()) == 5

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(PrefixError):
            Prefix.from_bytes(b"1234")


class TestOrdering:
    def test_sortable(self):
        ps = [Prefix.parse(t) for t in
              ["10.0.0.0/8", "0.0.0.0/0", "10.0.0.0/16"]]
        assert [str(p) for p in sorted(ps)] == \
            ["0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16"]

    def test_hashable_value_semantics(self):
        assert len({Prefix.parse("10.0.0.0/8"),
                    Prefix.parse("10.0.0.0/8")}) == 1

    @given(bits_strategy(), bits_strategy())
    def test_comparisons_follow_tuple_order(self, a_bits, b_bits):
        a = Prefix.from_bits(a_bits)
        # ``a`` one bit longer with a 0 shares its address: the length
        # decides.
        longer = (Prefix.from_bits(a_bits + (0,)),) \
            if len(a_bits) < MAX_PREFIX_LEN else ()
        for b in (Prefix.from_bits(b_bits), *longer):
            ta, tb = (a.address, a.length), (b.address, b.length)
            assert (a < b, a <= b, a > b, a >= b, a == b) == \
                (ta < tb, ta <= tb, ta > tb, ta >= tb, ta == tb)
            assert (b < a, b <= a, b > a, b >= a) == \
                (tb < ta, tb <= ta, tb > ta, tb >= ta)

    @pytest.mark.parametrize("other", [(10 << 24, 8), "10.0.0.0/8", 5,
                                       None])
    def test_comparing_with_a_non_prefix_raises(self, other):
        p = Prefix.parse("10.0.0.0/8")
        for compare in (lambda: p < other, lambda: p <= other,
                        lambda: p > other, lambda: p >= other,
                        lambda: other < p, lambda: other >= p):
            with pytest.raises(TypeError):
                compare()
