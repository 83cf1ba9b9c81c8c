"""Unit tests for the truncated-SHA-512 hashing layer."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashing

#: FIPS 180-4 SHA-512 examples: the empty message, "abc" and the
#: two-block 896-bit message.
FIPS_180_4 = [
    (b"",
     "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
     "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"),
    (b"abc",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"),
    (b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
     b"hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
     "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"),
]


class TestMerkleEngine:
    """The Merkle engine is SHA-512 as the standard defines it, and
    ``hashlib.sha512`` is its pinned reference."""

    @pytest.mark.parametrize("message, expected", FIPS_180_4,
                             ids=["empty", "abc", "896-bit"])
    def test_fips_180_4_vectors(self, message, expected):
        assert hashing.merkle_sha512(message).hexdigest() == expected
        assert hashlib.sha512(message).hexdigest() == expected

    def test_builtin_engine_where_cpython_has_one(self):
        module = "_sha2" if sys.version_info >= (3, 12) else "_sha512"
        builtin = pytest.importorskip(module)
        assert hashing.merkle_sha512 is builtin.sha512

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=4096), cut=st.integers(0, 4096))
    def test_engine_digest_equals_hashlib(self, data, cut):
        expected = hashlib.sha512(data).digest()
        assert hashing.merkle_sha512(data).digest() == expected
        # The labeling kernel feeds a bit node in two updates.
        h = hashing.merkle_sha512(data[:cut])
        h.update(data[cut:])
        assert h.digest() == expected


class TestDigest:
    def test_truncates_sha512_to_20_bytes(self):
        data = b"spider"
        assert hashing.digest(data) == hashlib.sha512(data).digest()[:20]

    def test_digest_size_constant(self):
        assert len(hashing.digest(b"")) == hashing.DIGEST_SIZE == 20

    def test_deterministic(self):
        assert hashing.digest(b"abc") == hashing.digest(b"abc")

    def test_different_inputs_differ(self):
        assert hashing.digest(b"a") != hashing.digest(b"b")

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            hashing.digest("not bytes")

    def test_accepts_bytearray_and_memoryview(self):
        expected = hashing.digest(b"xyz")
        assert hashing.digest(bytearray(b"xyz")) == expected
        assert hashing.digest(memoryview(b"xyz")) == expected


class TestDigestConcat:
    def test_matches_manual_concatenation(self):
        a, b = hashing.digest(b"a"), hashing.digest(b"b")
        assert hashing.digest_concat(a, b) == hashing.digest(a + b)

    def test_empty_is_hash_of_empty(self):
        assert hashing.digest_concat() == hashing.digest(b"")


class TestDigestFields:
    def test_length_prefix_prevents_ambiguity(self):
        # Without framing these two would hash identically.
        assert hashing.digest_fields(b"ab", b"c") != \
            hashing.digest_fields(b"a", b"bc")

    def test_rejects_non_bytes_field(self):
        with pytest.raises(TypeError):
            hashing.digest_fields(b"ok", 42)

    def test_field_count_matters(self):
        assert hashing.digest_fields(b"") != hashing.digest_fields(b"", b"")


class TestDigestIter:
    def test_matches_concat(self):
        parts = [b"one", b"two", b"three"]
        assert hashing.digest_iter(parts) == hashing.digest(b"".join(parts))


class TestBitCommitment:
    def test_commits_to_bit_and_blinding(self):
        x = bytes(20)
        assert hashing.bit_commitment(0, x) == hashing.digest(b"\x00" + x)
        assert hashing.bit_commitment(1, x) == hashing.digest(b"\x01" + x)

    def test_bits_distinguishable_given_blinding(self):
        x = b"\x07" * 20
        assert hashing.bit_commitment(0, x) != hashing.bit_commitment(1, x)

    def test_rejects_invalid_bit(self):
        with pytest.raises(ValueError):
            hashing.bit_commitment(2, bytes(20))

    def test_rejects_wrong_blinding_length(self):
        with pytest.raises(ValueError):
            hashing.bit_commitment(0, bytes(19))
        with pytest.raises(ValueError):
            hashing.bit_commitment(0, bytes(21))


class TestBitCommitments:
    """The batch path must be element-wise identical to bit_commitment."""

    def test_matches_scalar_version(self):
        bits = [0, 1, 1, 0, 1]
        blindings = [bytes([i]) * 20 for i in range(5)]
        assert hashing.bit_commitments(bits, blindings) == \
            [hashing.bit_commitment(b, x) for b, x in zip(bits, blindings)]

    def test_empty(self):
        assert hashing.bit_commitments([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hashing.bit_commitments([0, 1], [bytes(20)])

    def test_validates_each_element(self):
        with pytest.raises(ValueError):
            hashing.bit_commitments([0, 2], [bytes(20), bytes(20)])
        with pytest.raises(ValueError):
            hashing.bit_commitments([0, 1], [bytes(20), bytes(19)])
