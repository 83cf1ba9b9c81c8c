"""Tests for the key registry and the signed-envelope / batching layer."""

import sys
import threading
from collections import Counter

import pytest

from repro.bgp.messages import Announce
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core.promise import total_order_promise
from repro.crypto import rsa
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyRegistry, UnknownKeyError, make_identity
from repro.crypto.signatures import BatchDigests, Signed, Signer, Verifier
from repro.netsim.events import Simulator
from repro.obs.registry import use_registry
from repro.spider import codec
from repro.spider.codec import decode_message, encode_message
from repro.spider.config import SpiderConfig
from repro.spider.node import evaluation_scheme
from repro.spider.recorder import Recorder
from repro.spider.wire import SpiderCommitment

from tests.runtime.test_codec_roundtrip import _fresh_encode

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
    """Each RSA engine in turn."""
    if request.param == "pure":
        monkeypatch.setattr(rsa, "_C_RSA", False)
    elif not rsa._C_RSA:
        pytest.skip("cryptography is not importable")
    return request.param


@pytest.fixture()
def rsa_calls(monkeypatch):
    """Every ``rsa.verify`` call, as ``(thread, root)``."""
    calls = []
    real = rsa.verify

    def counted(key, message, signature):
        calls.append((threading.get_ident(), message))
        return real(key, message, signature)

    monkeypatch.setattr(rsa, "verify", counted)
    return calls


class TestHostileBatchesAgainstTheMemo:
    """Once a batch root has verified, its shared digest list carries
    the verdict and the other members skip RSA; a forged member must
    still fail on its own, and the verdict holds only for the exact key,
    signer and signature RSA accepted."""

    @pytest.fixture()
    def verified(self, engine, registry, alice):
        """A batch whose root has already verified once."""
        envs = Signer(alice).sign_batch([b"a", b"b", b"c"])
        assert all(env.batch_digests is envs[0].batch_digests
                   for env in envs)
        assert Verifier(registry).verify(envs[0])
        key = alice.public_key
        assert envs[0].batch_digests.verified_by == \
            (key.n, key.e, alice.asn, envs[0].signature)
        return envs

    @staticmethod
    def forge(env, **changes):
        fields = dict(signer=env.signer, payload=env.payload,
                      signature=env.signature,
                      batch_digests=env.batch_digests,
                      batch_index=env.batch_index)
        return Signed(**{**fields, **changes})

    @staticmethod
    def flip(signature, position):
        flipped = bytearray(signature)
        flipped[position] ^= 0x01
        return bytes(flipped)

    def test_swapped_payload_fails(self, registry, verified):
        forged = self.forge(verified[0], payload=verified[1].payload)
        assert not Verifier(registry).verify(forged)

    def test_edited_digest_list_fails(self, registry, verified):
        # Member 0 is untouched and still in its slot; only a sibling
        # digest changed, so the root the signature must cover changed.
        digests = list(verified[0].batch_digests)
        digests[2] = digest(b"evil")
        forged = self.forge(verified[0],
                            batch_digests=BatchDigests(digests))
        assert not Verifier(registry).verify(forged)
        forged_member = self.forge(verified[2], payload=b"evil",
                                   batch_digests=BatchDigests(digests))
        assert not Verifier(registry).verify(forged_member)

    def test_out_of_range_index_fails(self, registry, verified):
        for index in (3, 2**32 - 1):
            forged = self.forge(verified[0], batch_index=index)
            assert not Verifier(registry).verify(forged)

    def test_flipped_signature_byte_fails(self, registry, verified):
        for position in (0, len(verified[0].signature) - 1):
            forged = self.forge(verified[1], signature=self.flip(
                verified[1].signature, position))
            assert not Verifier(registry).verify(forged)

    def test_forgeries_never_enter_and_members_still_verify(
            self, registry, verified):
        marked = verified[0].batch_digests
        verdict = marked.verified_by
        digests = BatchDigests((marked[0], digest(b"evil")))
        assert not Verifier(registry).verify(
            self.forge(verified[0], batch_digests=digests))
        assert digests.verified_by is None
        assert marked.verified_by == verdict
        verifier = Verifier(registry)
        assert all(verifier.verify(env) for env in verified)

    def test_forged_member_holding_the_marked_list_fails(
            self, registry, verified, rsa_calls):
        marked = verified[0].batch_digests
        verdict = marked.verified_by
        forgeries = [self.forge(verified[1], payload=b"evil"),
                     self.forge(verified[1], batch_index=0),
                     self.forge(verified[1], signature=self.flip(
                         verified[1].signature, 0))]
        verifier = Verifier(registry)
        for forged in forgeries:
            assert forged.batch_digests is marked
            assert not verifier.verify(forged)
        # Only the flipped signature got past the member's own checks,
        # and it matched no verdict, so RSA ran for it and refused.
        assert len(rsa_calls) == 1
        assert marked.verified_by == verdict

    def test_marked_list_under_another_key_runs_rsa_and_fails(
            self, registry, verified, bob, rsa_calls):
        marked = verified[0].batch_digests
        verdict = marked.verified_by
        # The same list and signature, claimed by another known signer.
        assert not Verifier(registry).verify(
            self.forge(verified[0], signer=bob.asn))
        assert len(rsa_calls) == 1
        # The same envelope after the signer's registered key changed.
        rotated = KeyRegistry()
        rotated.register(verified[0].signer, rsa.generate_keypair(
            bits=BITS, seed=103).public_key)
        assert not Verifier(rotated).verify(verified[0])
        assert len(rsa_calls) == 2
        assert marked.verified_by == verdict
        assert Verifier(registry).verify(verified[2])
        assert len(rsa_calls) == 2

    def test_threads_pay_at_most_once_per_batch(self, engine, rsa_calls):
        registry = KeyRegistry()
        signer = Signer(make_identity(asn=4, registry=registry, bits=384,
                                      seed=105))
        batches = [signer.sign_batch([b"%d.a" % i, b"%d.b" % i])
                   for i in range(400)]
        verifier = Verifier(registry)
        verdicts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: verdicts.append(
                [verifier.verify(env) for batch in batches
                 for env in batch])) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert verdicts == [[True] * 800] * 4
        per_thread_root = Counter(rsa_calls)
        assert max(per_thread_root.values()) == 1
        assert len({root for _thread, root in rsa_calls}) == 400

    def test_burst_redecoded_after_the_intern_clears_pays_again(
            self, engine, registry, alice, monkeypatch, rsa_calls):
        monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
        monkeypatch.setattr(codec, "_digests_interned", 0)
        # Commitments only carry the burst's envelopes through the codec.
        burst = Signer(alice).sign_batch([b"a", b"b", b"c", b"d"])
        frames = [encode_message(SpiderCommitment(
            elector=alice.asn, commit_time=1.0, root=digest(env.payload),
            envelope=env)) for env in burst]
        verifier = Verifier(registry)

        def rsa_for_one_decode():
            before = len(rsa_calls)
            assert all(verifier.verify(decode_message(frame).envelope)
                       for frame in frames)
            return len(rsa_calls) - before

        assert rsa_for_one_decode() == 1
        assert rsa_for_one_decode() == 0
        monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
        monkeypatch.setattr(codec, "_digests_interned", 0)
        assert rsa_for_one_decode() == 1


def _bursts():
    """One genuine burst of eight announces, and the burst of eight
    ACKs that acknowledges it, each signed with one RSA operation per
    batch, as frames."""
    registry = KeyRegistry()
    # Above 256, so equal AS numbers are distinct int objects unless the
    # decoder shares them.
    elector, consumer = 64531, 64532
    identities = {asn: make_identity(asn, registry=registry, bits=BITS,
                                     seed=7400 + asn)
                  for asn in (elector, consumer)}
    scheme = evaluation_scheme(5)
    sim = Simulator()
    out = {elector: [], consumer: []}

    def recorder(asn, peer):
        return Recorder(
            identity=identities[asn], registry=registry, scheme=scheme,
            promises={peer: total_order_promise(scheme)},
            config=SpiderConfig(), clock=sim.clock,
            transport=lambda _receiver, messages: out[asn].extend(
                messages),
            schedule=sim.after)

    sender, receiver = recorder(elector, consumer), \
        recorder(consumer, elector)
    for i in range(8):
        sender.mirror_sent_update(Announce(
            sender=elector, receiver=consumer,
            route=Route(prefix=Prefix.parse(f"10.{i}.0.0/16"),
                        as_path=(elector, 9), neighbor=9)))
    sim.run()
    for announce in out[elector]:
        receiver.receive(announce)
    sim.run()
    assert len(out[elector]) == len(out[consumer]) == 8
    return registry, {kind: [_fresh_encode(m) for m in out[asn]]
                      for kind, asn in (("announce", elector),
                                        ("ack", consumer))}


@pytest.fixture(scope="module")
def bursts():
    return _bursts()


class TestHostileBurstsThroughTheCodec:
    """A decoded burst holds its batch signature once, on the shared
    digest list; a member whose signature bytes differ keeps its own
    bytes, so one forged member fails alone and never receives the
    genuine signature, and every member still re-encodes to its own
    frame."""

    @pytest.fixture(autouse=True)
    def empty_intern(self, monkeypatch):
        monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
        monkeypatch.setattr(codec, "_digests_interned", 0)

    @staticmethod
    def decode_all(frames):
        return [decode_message(frame) for frame in frames]

    @pytest.mark.parametrize("kind", ["announce", "ack"])
    def test_a_genuine_burst_holds_one_signature(self, bursts, kind):
        registry, frames = bursts
        members = self.decode_all(frames[kind])
        assert [_fresh_encode(m) for m in members] == frames[kind]
        assert all(m.valid(registry) for m in members)
        assert len({id(m.envelope.signature) for m in members}) == 1
        assert len({id(m.envelope.batch_digests) for m in members}) == 1
        if kind == "announce":
            assert len({id(m.route_sig.signature) for m in members}) == 1
            assert all(m.envelope.signer is m.route_sig.signer is m.sender
                       for m in members)
        else:
            assert all(m.envelope.signer is m.acker for m in members)

    @pytest.mark.parametrize("kind", ["announce", "ack"])
    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_a_forged_member_keeps_its_own_bytes(self, bursts, kind, k):
        registry, frames = bursts
        genuine = decode_message(frames[kind][k]).envelope.signature
        at = frames[kind][k].index(genuine) + len(genuine) // 2
        forged_frame = bytearray(frames[kind][k])
        forged_frame[at] ^= 0x01
        sent = list(frames[kind])
        sent[k] = bytes(forged_frame)
        members = self.decode_all(sent)
        assert [_fresh_encode(m) for m in members] == sent
        assert [m.valid(registry) for m in members] == \
            [i != k for i in range(len(members))]
        assert members[k].envelope.signature != genuine
        assert all(m.envelope.signature is not members[k].envelope.signature
                   for i, m in enumerate(members) if i != k)


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

    def test_a_verifier_counts_into_the_registry_it_was_built_under(
            self, registry, alice):
        """The cells are bound once per obs registry, and a
        ``use_registry`` swap, in or out, moves the next verifier's
        counts with it; an outcome never seen has no series."""
        env = Signer(alice).sign(b"a")
        stranger = Signed(signer=42, payload=b"a",
                          signature=env.signature)
        with use_registry() as outer:
            assert Verifier(registry).verify(env)
            with use_registry() as inner:
                verifier = Verifier(registry)
                assert verifier.verify(env)
                assert not verifier.verify(stranger)
            assert Verifier(registry).verify(env)
            assert not verifier.verify(stranger)  # built under inner
        assert self.checked(outer) == {"valid": 2}
        assert self.checked(inner) == {"valid": 1, "unknown_signer": 2}
        assert outer.histogram("verify_seconds").count == 2
        assert inner.histogram("verify_seconds").count == 1
