"""Tests for the key registry and the signed-envelope / batching layer."""

import sys
import threading

import pytest

from repro.crypto import rsa, signatures
from repro.crypto.hashing import digest
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


@pytest.fixture(params=["pure", "c"])
def engine(request, monkeypatch):
    """Each RSA engine in turn, with an empty batch memo."""
    if request.param == "pure":
        monkeypatch.setattr(rsa, "_C_RSA", False)
    elif not rsa._C_RSA:
        pytest.skip("cryptography is not importable")
    monkeypatch.setattr(signatures, "_VERIFIED_BATCHES", set())
    monkeypatch.setattr(signatures, "_verified_digests", 0)
    return request.param


class TestHostileBatchesAgainstTheMemo:
    """Once a batch root has verified, its other members skip RSA; a
    forged member must still fail on its own, and the memo must not
    grow with what a hostile peer sends."""

    @pytest.fixture()
    def verified(self, engine, registry, alice):
        """A batch whose root has already verified once."""
        envs = Signer(alice).sign_batch([b"a", b"b", b"c"])
        assert Verifier(registry).verify(envs[0])
        assert len(signatures._VERIFIED_BATCHES) == 1
        return envs

    @staticmethod
    def forge(env, **changes):
        fields = dict(signer=env.signer, payload=env.payload,
                      signature=env.signature,
                      batch_digests=env.batch_digests,
                      batch_index=env.batch_index)
        return Signed(**{**fields, **changes})

    def test_swapped_payload_fails(self, registry, verified):
        forged = self.forge(verified[0], payload=verified[1].payload)
        assert not Verifier(registry).verify(forged)

    def test_edited_digest_list_fails(self, registry, verified):
        # Member 0 is untouched and still in its slot; only a sibling
        # digest changed, so the root the signature must cover changed.
        digests = list(verified[0].batch_digests)
        digests[2] = digest(b"evil")
        forged = self.forge(verified[0], batch_digests=tuple(digests))
        assert not Verifier(registry).verify(forged)
        forged_member = self.forge(verified[2], payload=b"evil",
                                   batch_digests=tuple(digests))
        assert not Verifier(registry).verify(forged_member)

    def test_out_of_range_index_fails(self, registry, verified):
        for index in (3, 2**32 - 1):
            forged = self.forge(verified[0], batch_index=index)
            assert not Verifier(registry).verify(forged)

    def test_flipped_signature_byte_fails(self, registry, verified):
        for position in (0, len(verified[0].signature) - 1):
            flipped = bytearray(verified[1].signature)
            flipped[position] ^= 0x01
            forged = self.forge(verified[1], signature=bytes(flipped))
            assert not Verifier(registry).verify(forged)

    def test_forgeries_never_enter_and_members_still_verify(
            self, registry, verified):
        digests = (verified[0].batch_digests[0], digest(b"evil"))
        Verifier(registry).verify(self.forge(verified[0],
                                             batch_digests=digests))
        assert len(signatures._VERIFIED_BATCHES) == 1
        verifier = Verifier(registry)
        assert all(verifier.verify(env) for env in verified)

    def test_memo_stays_bounded_under_distinct_roots(self, engine):
        registry = KeyRegistry()
        signer = Signer(make_identity(asn=3, registry=registry, bits=384,
                                      seed=104))
        verifier = Verifier(registry)
        for i in range(10_000):
            first, second = signer.sign_batch([b"a%d" % i, b"b%d" % i])
            assert verifier.verify(first) and verifier.verify(second)
            # Two digests per root.
            assert 2 * len(signatures._VERIFIED_BATCHES) <= \
                signatures._VERIFIED_BATCH_LIMIT
        held = sum(len(key[-1]) for key in signatures._VERIFIED_BATCHES)
        assert held == signatures._verified_digests
        # The wholesale clear happened and the memo refilled after it.
        assert 0 < len(signatures._VERIFIED_BATCHES) < 10_000

    def test_memo_counts_right_under_threads(self, engine):
        registry = KeyRegistry()
        signer = Signer(make_identity(asn=4, registry=registry, bits=384,
                                      seed=105))
        batches = [[signer.sign_batch([b"%d.%d.a" % (worker, i),
                                       b"%d.%d.b" % (worker, i)])[0]
                    for i in range(400)] for worker in range(4)]
        verifier = Verifier(registry)
        verdicts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda batch=batch:
                                        verdicts.extend(map(verifier.verify,
                                                            batch)))
                       for batch in batches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert verdicts == [True] * 1600
        assert len(signatures._VERIFIED_BATCHES) == 1600
        assert signatures._verified_digests == 2 * 1600


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
