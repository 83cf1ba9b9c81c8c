"""Unit tests for RC4 and the drop-3072 CSPRNG.

The from-scratch :class:`Rc4` is the reference: the RFC 6229 vectors pin
it.  :class:`Rc4Csprng` draws through the installed C ARC4 when it takes
the key; ``TestCKeystream`` holds that path to the reference, and is
skipped, visibly, where ``cryptography`` is absent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rc4
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.rc4 import DROP_BYTES, Rc4, Rc4Csprng

#: Seed lengths (bytes) the C ARC4 accepts: 40/56/64/80/128/160/192/256
#: bits.  Recorder seeds are 20-byte digests.
ARC4_SEED_BYTES = (5, 7, 8, 10, 16, 20, 24, 32)
#: Seed lengths it rejects, which must fall back to :class:`Rc4`.
FALLBACK_SEED_BYTES = (9, 33)

#: One draw: ``("bytes", k)``, ``("bitstring", 1)`` or
#: ``("bitstrings", m)``.
DRAWS = st.one_of(
    st.tuples(st.just("bytes"), st.integers(0, 5000)),
    st.tuples(st.just("bitstring"), st.just(1)),
    st.tuples(st.just("bitstrings"), st.integers(0, 300)))


def _draw(gen, draws):
    out = []
    for kind, n in draws:
        if kind == "bytes":
            out.append(gen.bytes(n))
        elif kind == "bitstring":
            out.append(gen.bitstring())
        else:
            out.extend(gen.bitstrings(n))
    return b"".join(out)


class TestRc4:
    def test_known_vector_key_key(self):
        # RFC 6229-era classic test vector: Key "Key", plaintext "Plaintext".
        cipher = Rc4(b"Key")
        assert cipher.encrypt(b"Plaintext") == \
            bytes.fromhex("BBF316E8D940AF0AD3")

    def test_known_vector_wiki(self):
        cipher = Rc4(b"Wiki")
        assert cipher.encrypt(b"pedia") == bytes.fromhex("1021BF0420")

    def test_known_vector_secret(self):
        cipher = Rc4(b"Secret")
        assert cipher.encrypt(b"Attack at dawn") == \
            bytes.fromhex("45A01F645FC35B383552544B9BF5")

    def test_encrypt_decrypt_roundtrip(self):
        plaintext = b"the elector had a better route"
        ciphertext = Rc4(b"k1").encrypt(plaintext)
        assert Rc4(b"k1").encrypt(ciphertext) == plaintext

    def test_keystream_is_stateful(self):
        cipher = Rc4(b"k")
        first = cipher.keystream(10)
        second = cipher.keystream(10)
        assert first != second
        assert Rc4(b"k").keystream(20) == first + second

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            Rc4(b"")

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            Rc4(bytes(257))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Rc4(b"k").keystream(-1)

    def test_zero_length_keystream(self):
        assert Rc4(b"k").keystream(0) == b""


class TestRfc6229Vectors:
    """RFC 6229 keystream tables (the official RC4 test vectors)."""

    def test_40_bit_key(self):
        ks = Rc4(bytes([0x01, 0x02, 0x03, 0x04, 0x05])).keystream(4112)
        assert ks[0:16].hex() == "b2396305f03dc027ccc3524a0a1118a8"
        assert ks[16:32].hex() == "6982944f18fc82d589c403a47a0d0919"
        assert ks[240:256].hex() == "28cb1132c96ce286421dcaadb8b69eae"
        assert ks[4096:4112].hex() == "ff25b58995996707e51fbdf08b34d875"

    def test_128_bit_key(self):
        key = bytes(range(0x01, 0x11))
        ks = Rc4(key).keystream(32)
        assert ks[0:16].hex() == "9ac7cc9a609d1ef7b2932899cde41b97"
        assert ks[16:32].hex() == "5248c4959014126a6e8a84f11d1a9e1c"


class TestBlockedKeystream:
    """How draws are batched must be invisible in the output."""

    def test_bytes_match_unbuffered_stream(self):
        # Mixed small/large draws equal one contiguous post-drop
        # keystream.
        raw = Rc4(b"blocked")
        raw.keystream(DROP_BYTES)
        gen = Rc4Csprng(b"blocked")
        draws = [1, 7, 8192, 20, 16384 + 3, 5, 8191]
        out = b"".join(gen.bytes(n) for n in draws)
        assert out == raw.keystream(sum(draws))

    def test_bitstrings_equal_repeated_bitstring(self):
        a = Rc4Csprng(b"batch")
        b = Rc4Csprng(b"batch")
        assert a.bitstrings(300) == [b.bitstring() for _ in range(300)]

    def test_bitstrings_zero(self):
        gen = Rc4Csprng(b"batch")
        assert gen.bitstrings(0) == []
        # The zero-length draw must not consume stream position.
        assert gen.bitstring() == Rc4Csprng(b"batch").bitstring()

    @pytest.mark.parametrize("n", [0, 1, 2, 48_611])
    @pytest.mark.parametrize("engine", ["c", "pure"])
    def test_bitstrings_split_equals_slicing(self, engine, n, monkeypatch):
        # One regex pass splits the draw; the reference is the slice per
        # bitstring it replaced.  48 611 draws blind a `table_commit`
        # tree.
        if engine == "c":
            pytest.importorskip("cryptography", exc_type=ImportError)
        else:
            monkeypatch.setattr(rc4, "_C_KEY_BYTES", frozenset())
        seed = bytes(range(DIGEST_SIZE))
        data = Rc4Csprng(seed).bytes(n * DIGEST_SIZE)
        sliced = [data[i:i + DIGEST_SIZE]
                  for i in range(0, len(data), DIGEST_SIZE)]
        assert Rc4Csprng(seed).bitstrings(n) == sliced


class TestRc4Csprng:
    def test_deterministic_given_seed(self):
        a = Rc4Csprng(b"seed-123")
        b = Rc4Csprng(b"seed-123")
        assert [a.bitstring() for _ in range(5)] == \
            [b.bitstring() for _ in range(5)]

    def test_different_seeds_diverge(self):
        assert Rc4Csprng(b"s1").bitstring() != Rc4Csprng(b"s2").bitstring()

    def test_drops_initial_keystream(self):
        # The CSPRNG output must equal raw RC4 keystream offset by 3072.
        raw = Rc4(b"seed")
        raw.keystream(DROP_BYTES)
        assert Rc4Csprng(b"seed").bytes(16) == raw.keystream(16)

    def test_bitstring_length_matches_digest(self):
        assert len(Rc4Csprng(b"s").bitstring()) == DIGEST_SIZE

    def test_seed_property_round_trips(self):
        gen = Rc4Csprng(b"my-seed")
        assert gen.seed == b"my-seed"
        # Rebuilding from the stored seed reproduces the stream — this is
        # the property Section 6.5 relies on for MTT reconstruction.
        replay = Rc4Csprng(gen.seed)
        gen_out = [gen.bitstring() for _ in range(3)]
        assert [replay.bitstring() for _ in range(3)] == gen_out

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError):
            Rc4Csprng(b"")

    def test_successive_bitstrings_differ(self):
        gen = Rc4Csprng(b"s")
        outputs = {gen.bitstring() for _ in range(100)}
        assert len(outputs) == 100


class TestCKeystream:
    """The C path serves the reference keystream, and carries the
    deployment's traffic."""

    @pytest.fixture(autouse=True, scope="class")
    def _cryptography(self):
        # Any ImportError, as in the module's own fallback.
        pytest.importorskip("cryptography", exc_type=ImportError)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.sampled_from(ARC4_SEED_BYTES + FALLBACK_SEED_BYTES)
           .flatmap(lambda n: st.binary(min_size=n, max_size=n)),
           draws=st.lists(DRAWS, max_size=8))
    def test_c_path_pure_path_and_textbook_stream_agree(self, seed,
                                                        draws):
        built = []

        class CountingRc4(Rc4):
            def __init__(self, key):
                built.append(key)
                super().__init__(key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rc4, "Rc4", CountingRc4)
            default = _draw(Rc4Csprng(seed), draws)
        # Only a length ARC4 rejects builds the pure engine.
        assert bool(built) == (len(seed) in FALLBACK_SEED_BYTES)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rc4, "_C_KEY_BYTES", frozenset())
            pure = _draw(Rc4Csprng(seed), draws)
        textbook = Rc4(seed)
        textbook.keystream(DROP_BYTES)
        assert default == pure == textbook.keystream(len(default))

    def test_recorder_rounds_and_reconstructions_take_the_c_path(
            self, monkeypatch):
        from repro.mtt.labeling import label_tree
        from repro.mtt.tree import Mtt
        from repro.runtime.scenario import ASN_A, ASN_B, ROUTE, \
            exchange_runtime
        from repro.runtime.transport import LoopbackHub

        hub = LoopbackHub()
        hub.attach(ASN_B)
        runtime = exchange_runtime(ASN_A, hub.attach(ASN_A))
        runtime.advance_to(1.0)
        runtime.announce(ASN_B, ROUTE)
        recorder = runtime.recorder

        def no_pure_engine(key):
            raise AssertionError(f"pure RC4 keyed with {len(key)} bytes")

        monkeypatch.setattr(rc4, "Rc4", no_pure_engine)
        record = runtime.commit()
        assert len(recorder.commitment_seed(record.commit_time)) == 20
        reconstruction = runtime.node.proofgen.reconstruct(
            record.commit_time)
        assert reconstruction.root == record.root
        # The pure path gives the same root for the same seed.
        monkeypatch.undo()
        monkeypatch.setattr(rc4, "_C_KEY_BYTES", frozenset())
        tree = Mtt.build(recorder.mtt_entries(recorder.state))
        seed = recorder.commitment_seed(record.commit_time)
        assert label_tree(tree, Rc4Csprng(seed)).root_label == record.root
        runtime.close()
