"""A bit proof is encoded at most once per side.

``MttBitProof.encoded`` carries the proof's byte form: filled by the
first ``encode()`` on the sending side (to sign, then to ship), and by
the codec from the frame on the receiving side (to check the
signature).  These tests pin that the carried bytes are always the
bytes a fresh encode gives, that a changed copy never inherits them,
and that the proof's identity is what it was.  The codec reads a path
step's labels in one struct read, looked up in a small cache that a
hostile header cannot fill.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.bgp.prefix import Prefix
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.rc4 import Rc4Csprng
from repro.crypto.signatures import Signed, Signer
from repro.mtt import proofs as proofs_module
from repro.mtt.labeling import label_tree
from repro.mtt.proofs import MttBitProof, PathStep, generate_proof
from repro.mtt.tree import Mtt
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider import codec
from repro.spider.codec import CodecError, decode_message, encode_message
from repro.spider.config import SpiderConfig
from repro.runtime.node_runtime import SpiderDeployment
from repro.spider.node import evaluation_scheme
from repro.spider.proofgen import ProofSet
from repro.spider.wire import SpiderBitProof

from tests import strategies

ELECTOR, RECIPIENT = 5, 7
P = Prefix.parse("0.0.0.0/2")
ENTRIES = {
    P: [1, 0, 1],
    Prefix.parse("160.0.0.0/3"): [0, 1, 0],
    Prefix.parse("128.0.0.0/1"): [1, 1, 0],
}


@pytest.fixture(scope="module")
def world():
    registry = KeyRegistry()
    signer = Signer(make_identity(ELECTOR, registry=registry, bits=512,
                                  seed=81))
    tree = Mtt.build(ENTRIES)
    label_tree(tree, Rc4Csprng(b"carried"))
    return registry, signer, tree


def _fresh(proof):
    """The proof's bytes built anew: ``replace`` drops carried bytes."""
    copy = dataclasses.replace(proof)
    assert copy.encoded == b""
    return copy.encode()


class TestCarriedBytes:
    def test_a_generated_proof_carries_its_fresh_encoding(self, world):
        registry, signer, tree = world
        message = SpiderBitProof.make(signer, RECIPIENT, 10.0,
                                      generate_proof(tree, P, 1))
        assert message.proof.encoded == _fresh(message.proof)
        assert message.proof.encode() is message.proof.encoded
        assert message.valid(registry)

    def test_a_decoded_proof_carries_its_frame_bytes(self, world):
        registry, signer, tree = world
        sent = SpiderBitProof.make(signer, RECIPIENT, 10.0,
                                   generate_proof(tree, P, 2))
        received = decode_message(encode_message(sent))
        assert received.proof.encoded == _fresh(received.proof)
        assert received.proof.encoded == sent.proof.encoded
        assert received.valid(registry)

    @settings(max_examples=100, deadline=None)
    @given(strategies.bit_proofs())
    def test_carried_bytes_equal_a_fresh_encode(self, message):
        assert message.proof.encode() == _fresh(message.proof)
        decoded = decode_message(encode_message(message))
        assert decoded.proof.encoded
        assert decoded.proof.encode() == _fresh(decoded.proof)

    @pytest.mark.parametrize("decoded", [False, True])
    def test_a_flipped_copy_fails_its_original_envelope(self, world,
                                                        decoded):
        """The envelope signs the original bytes; the copy with the bit
        flipped is encoded afresh, so its payload no longer matches.
        (The checker would also catch the flipped leaf; this is the
        signature check alone.)"""
        registry, signer, tree = world
        message = SpiderBitProof.make(signer, RECIPIENT, 10.0,
                                      generate_proof(tree, P, 0))
        if decoded:
            message = decode_message(encode_message(message))
        assert message.valid(registry)
        proof = message.proof
        flipped = SpiderBitProof(
            elector=message.elector, recipient=message.recipient,
            commit_time=message.commit_time,
            proof=dataclasses.replace(proof, bit=1 - proof.bit),
            envelope=message.envelope)
        assert flipped.proof.encode() != proof.encode()
        assert not flipped.valid(registry)


class TestIdentityUnchanged:
    def test_compared_fields(self):
        compared = [f.name for f in dataclasses.fields(MttBitProof)
                    if f.compare]
        assert compared == ["prefix", "class_index", "bit", "blinding",
                            "steps"]

    def test_not_an_init_argument(self, world):
        proof = generate_proof(world[2], P, 0)
        with pytest.raises(TypeError):
            MttBitProof(prefix=proof.prefix, class_index=0, bit=proof.bit,
                        blinding=proof.blinding, steps=proof.steps,
                        encoded=proof.encode())

    def test_eq_hash_and_repr_ignore_the_bytes(self, world):
        proof = generate_proof(world[2], P, 0)
        # A generated proof carries its bytes; a replace copy does not.
        twin = dataclasses.replace(proof)
        assert proof.encoded and not twin.encoded
        assert proof == twin
        assert hash(proof) == hash(twin)
        assert repr(proof) == repr(twin)
        assert "encoded" not in repr(proof)


# ----------------------------------------------------------------------
# One encode per side, counted over a real proof set

FEED = 65000
PREFIXES = [Prefix.parse(f"203.0.{113 + i}.0/24") for i in range(8)]


@pytest.fixture(scope="module")
def eight_prefixes():
    """Figure 5 network + SPIDeR, converged on eight fed prefixes, with
    one commitment of AS 5 delivered to its neighbours."""
    network = Network(figure5_topology())
    dep = SpiderDeployment(network, scheme=evaluation_scheme(10),
                           config=SpiderConfig(commit_interval=60.0))
    network.attach_feed(INJECTION_AS, feed_asn=FEED)
    network.schedule_trace(FEED, [
        TraceEvent(1.0 + i / 10, prefix, (FEED, 4000 + i))
        for i, prefix in enumerate(PREFIXES)])
    network.settle()
    record = dep.commit_now(FOCUS_AS)
    network.settle()
    return dep, record


class _CountingStruct:
    """Stands in for the struct packed once per encoding of a proof,
    by ``generate_proofs`` as it builds one or by the body of
    ``MttBitProof.encode``, so every pack is one encoding."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def pack(self, *values):
        self.calls += 1
        return self.inner.pack(*values)


@pytest.mark.parametrize("neighbor", [2, 7], ids=["producer", "consumer"])
def test_an_eight_prefix_set_is_encoded_once_and_decoded_bytes_reused(
        eight_prefixes, monkeypatch, neighbor):
    """AS 2 is due a 1-proof per prefix, AS 7 two 0-proofs per prefix.
    Sending encodes each proof once (as it is generated; signing and
    shipping reuse it), receiving never (the signature check reads the
    frame's bytes)."""
    dep, record = eight_prefixes
    elector = dep.node(FOCUS_AS)
    reconstruction = elector.proofgen.reconstruct(record.commit_time)
    counter = _CountingStruct(proofs_module._S_CLASS_BIT)
    monkeypatch.setattr(proofs_module, "_S_CLASS_BIT", counter)
    sent = elector.proofgen.proofs_for(reconstruction, neighbor)
    producer = [encode_message(p) for p in sent.producer_proofs.values()]
    consumer = [encode_message(p)
                for group in sent.consumer_proofs.values() for p in group]
    assert set(sent.producer_proofs) | set(sent.consumer_proofs) == \
        set(PREFIXES)
    assert counter.calls == sent.proof_count() == \
        len(producer) + len(consumer)

    counter.calls = 0
    delivered = ProofSet(elector=FOCUS_AS, recipient=neighbor,
                         commit_time=record.commit_time)
    for frame in producer:
        message = decode_message(frame)
        delivered.producer_proofs[message.proof.prefix] = message
    for frame in consumer:
        message = decode_message(frame)
        delivered.consumer_proofs.setdefault(
            message.proof.prefix, []).append(message)
    outcome = dep.check_proofs(FOCUS_AS, neighbor, record.commit_time,
                               delivered)
    assert outcome.report.ok, [str(v) for v in outcome.report.verdicts]
    assert outcome.report.proofs_checked == sent.proof_count()
    assert counter.calls == 0


# ----------------------------------------------------------------------
# One struct read per path step

def _proof_frame(n_children):
    """A bit-proof frame whose one step has ``n_children`` labels.  The
    codec checks no signature, so the envelope is a placeholder."""
    proof = MttBitProof(
        prefix=P, class_index=0, bit=1, blinding=bytes(20),
        steps=(PathStep(child_labels=tuple(
            i.to_bytes(20, "big") for i in range(n_children)),
            child_index=n_children - 1),))
    return encode_message(SpiderBitProof(
        elector=ELECTOR, recipient=RECIPIENT, commit_time=1.0,
        proof=proof, envelope=Signed(signer=ELECTOR, payload=b"",
                                     signature=b"")))


#: version | tag | elector | recipient | time, then the proof's
#: prefix | class | bit | blinding | n_steps: where step 0 begins.
_STEP_OFFSET = 2 + 4 + 4 + 8 + 5 + 4 + 1 + 20 + 2


def test_a_hostile_child_count_is_refused_before_a_struct_is_built():
    frame = bytearray(_proof_frame(1))
    assert frame[_STEP_OFFSET:_STEP_OFFSET + 4] == b"\x00\x01\x00\x00"
    frame[_STEP_OFFSET:_STEP_OFFSET + 2] = (65535).to_bytes(2, "big")
    before = codec._labels_struct.cache_info()
    with pytest.raises(CodecError):
        decode_message(bytes(frame))
    after = codec._labels_struct.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize


def test_the_step_struct_cache_stays_bounded():
    for n in range(1, 201):
        frame = _proof_frame(n)
        decoded = decode_message(frame)
        assert len(decoded.proof.steps[0].child_labels) == n
        assert decoded.proof.encoded == _fresh(decoded.proof)
    assert codec._labels_struct.cache_info().currsize <= 8
