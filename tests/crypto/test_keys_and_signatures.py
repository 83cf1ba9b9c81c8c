"""Tests for the key registry and the signed-envelope / batching layer."""

import pytest

from repro.crypto import rsa
from repro.crypto.keys import KeyRegistry, UnknownKeyError, make_identity
from repro.crypto.signatures import Signed, Signer, Verifier
from repro.obs.registry import use_registry

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


class TestBatchSigning:
    def test_batch_shares_one_signature(self, registry, alice):
        envs = Signer(alice).sign_batch([b"a", b"b", b"c"])
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


class TestSignatureCounters:
    """The registry counters are the one tally of signature work: made
    and payloads per signing node, checked per outcome."""

    @pytest.fixture()
    def obs(self):
        with use_registry() as obs:
            yield obs

    @staticmethod
    def signed(obs):
        return (obs.total("signatures_made_total", node="as1"),
                obs.total("payloads_signed_total", node="as1"))

    @staticmethod
    def checked(obs):
        return obs.label_values("signatures_checked_total", "outcome")

    def test_sign_counts_one_signature_one_payload(self, obs, alice):
        Signer(alice).sign(b"a")
        assert self.signed(obs) == (1, 1)

    def test_batch_counts_one_signature_per_batch(self, obs, alice):
        signer = Signer(alice)
        signer.sign_batch([b"a", b"b", b"c"])
        assert self.signed(obs) == (1, 3)
        signer.sign_batch([])
        assert self.signed(obs) == (1, 3)

    def test_verify_that_reaches_rsa_counts_its_outcome(self, obs,
                                                        registry, alice):
        env = Signer(alice).sign(b"a")
        verifier = Verifier(registry)
        assert verifier.verify(env)
        assert self.checked(obs) == {"valid": 1}
        assert not verifier.verify(Signed(signer=env.signer, payload=b"x",
                                          signature=env.signature))
        assert self.checked(obs) == {"valid": 1, "invalid": 1}

    def test_refusals_before_rsa_count_their_reason(self, obs, registry,
                                                    alice, monkeypatch):
        envs = Signer(alice).sign_batch([b"a", b"b"])
        monkeypatch.setattr(rsa, "verify", lambda *_: pytest.fail(
            "refused envelope reached an RSA check"))
        verifier = Verifier(registry)
        assert not verifier.verify(Signed(
            signer=42, payload=envs[0].payload,
            signature=envs[0].signature))
        assert not verifier.verify(Signed(
            signer=envs[0].signer, payload=envs[0].payload,
            signature=envs[0].signature,
            batch_digests=envs[0].batch_digests, batch_index=5))
        assert self.checked(obs) == {"unknown_signer": 1, "bad_batch": 1}
