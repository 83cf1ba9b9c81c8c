"""Tests for the key registry and the signed-envelope / batching layer."""

import pytest

from repro.crypto import rsa
from repro.crypto.keys import KeyRegistry, UnknownKeyError, make_identity
from repro.crypto.signatures import CryptoStats, Signed, Signer, \
    Verifier

BITS = 512


@pytest.fixture()
def registry():
    return KeyRegistry()


@pytest.fixture()
def alice(registry):
    return make_identity(asn=1, registry=registry, bits=BITS, seed=101)


@pytest.fixture()
def bob(registry):
    return make_identity(asn=2, registry=registry, bits=BITS, seed=102)


class TestKeyRegistry:
    def test_register_and_lookup(self, registry, alice):
        assert registry.public_key(1) == alice.public_key
        assert registry.knows(1)

    def test_unknown_as_raises(self, registry):
        with pytest.raises(UnknownKeyError):
            registry.public_key(999)

    def test_reregistering_same_key_is_idempotent(self, registry, alice):
        registry.register(1, alice.public_key)
        assert len(registry) == 1

    def test_key_substitution_rejected(self, registry, alice):
        other = rsa.generate_keypair(bits=BITS, seed=103)
        with pytest.raises(ValueError):
            registry.register(1, other.public_key)

    def test_iteration_and_len(self, registry, alice, bob):
        assert sorted(registry) == [1, 2]
        assert len(registry) == 2


class TestSignerVerifier:
    def test_sign_verify_roundtrip(self, registry, alice):
        signer = Signer(alice)
        verifier = Verifier(registry)
        env = signer.sign(b"payload")
        assert env.signer == 1
        assert verifier.verify(env)

    def test_tampered_payload_rejected(self, registry, alice):
        env = Signer(alice).sign(b"payload")
        forged = Signed(signer=env.signer, payload=b"other",
                        signature=env.signature)
        assert not Verifier(registry).verify(forged)

    def test_signer_impersonation_rejected(self, registry, alice, bob):
        # Bob relabels Alice's envelope as his own.
        env = Signer(alice).sign(b"payload")
        forged = Signed(signer=bob.asn, payload=env.payload,
                        signature=env.signature)
        assert not Verifier(registry).verify(forged)

    def test_unknown_signer_rejected(self, registry, alice):
        env = Signer(alice).sign(b"p")
        forged = Signed(signer=42, payload=env.payload,
                        signature=env.signature)
        assert not Verifier(registry).verify(forged)

    def test_stats_counters(self, registry, alice):
        stats = CryptoStats()
        signer = Signer(alice, stats=stats)
        verifier = Verifier(registry, stats=stats)
        verifier.verify(signer.sign(b"a"))
        verifier.verify(signer.sign(b"b"))
        assert stats.signatures_made == 2
        assert stats.signatures_checked == 2
        assert stats.payloads_signed == 2

    def test_stats_merge(self):
        a = CryptoStats(signatures_made=1, signatures_checked=2,
                        payloads_signed=3)
        b = CryptoStats(signatures_made=10, signatures_checked=20,
                        payloads_signed=30)
        a.merge(b)
        assert (a.signatures_made, a.signatures_checked,
                a.payloads_signed) == (11, 22, 33)

    def test_wire_size_counts_all_parts(self, alice):
        env = Signer(alice).sign(b"12345")
        assert env.wire_size() == 5 + len(env.signature) + 12


class TestBatchSigning:
    def test_batch_shares_one_signature(self, registry, alice):
        stats = CryptoStats()
        signer = Signer(alice, stats=stats)
        envs = signer.sign_batch([b"a", b"b", b"c"])
        assert stats.signatures_made == 1
        assert stats.payloads_signed == 3
        assert len({e.signature for e in envs}) == 1

    def test_each_batch_member_verifies_independently(self, registry, alice):
        envs = Signer(alice).sign_batch([b"a", b"b", b"c"])
        verifier = Verifier(registry)
        for env in envs:
            assert verifier.verify(env)

    def test_batch_member_payload_swap_rejected(self, registry, alice):
        envs = Signer(alice).sign_batch([b"a", b"b"])
        forged = Signed(signer=envs[0].signer, payload=b"x",
                        signature=envs[0].signature,
                        batch_digests=envs[0].batch_digests,
                        batch_index=envs[0].batch_index)
        assert not Verifier(registry).verify(forged)

    def test_batch_index_out_of_range_rejected(self, registry, alice):
        envs = Signer(alice).sign_batch([b"a", b"b"])
        forged = Signed(signer=envs[0].signer, payload=envs[0].payload,
                        signature=envs[0].signature,
                        batch_digests=envs[0].batch_digests,
                        batch_index=5)
        assert not Verifier(registry).verify(forged)

    def test_empty_batch(self, alice):
        assert Signer(alice).sign_batch([]) == []

    def test_singleton_batch_is_plain_signature(self, registry, alice):
        envs = Signer(alice).sign_batch([b"only"])
        assert len(envs) == 1
        assert envs[0].batch_digests == ()
        assert Verifier(registry).verify(envs[0])
