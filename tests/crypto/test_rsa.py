"""Unit and property tests for RSA signing: the pure-Python reference and
the OpenSSL path that must give the same bytes."""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.hashing import digest

# Small keys keep the suite fast; one test exercises the paper's 1024 bits.
TEST_BITS = 512


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(bits=TEST_BITS, seed=7)


class TestPrimality:
    def test_small_primes(self):
        rng = random.Random(0)
        for p in [2, 3, 5, 7, 97, 101, 7919]:
            assert rsa.is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = random.Random(0)
        for n in [0, 1, 4, 9, 91, 561, 7917]:
            assert not rsa.is_probable_prime(n, rng)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that Miller-Rabin must still catch.
        rng = random.Random(1)
        for n in [561, 1105, 1729, 2465, 2821, 6601, 8911]:
            assert not rsa.is_probable_prime(n, rng)

    def test_generate_prime_has_exact_bits(self):
        rng = random.Random(2)
        for bits in [16, 64, 128]:
            p = rsa.generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert rsa.is_probable_prime(p, rng)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(ValueError):
            rsa.generate_prime(4, random.Random(0))


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        k1 = rsa.generate_keypair(bits=TEST_BITS, seed=42)
        k2 = rsa.generate_keypair(bits=TEST_BITS, seed=42)
        assert k1.n == k2.n and k1.d == k2.d

    def test_different_seeds_differ(self):
        k1 = rsa.generate_keypair(bits=TEST_BITS, seed=1)
        k2 = rsa.generate_keypair(bits=TEST_BITS, seed=2)
        assert k1.n != k2.n

    def test_modulus_bit_length(self, keypair):
        assert keypair.n.bit_length() == TEST_BITS

    def test_crt_components_consistent(self, keypair):
        k = keypair
        assert k.p * k.q == k.n
        assert (k.e * k.d) % ((k.p - 1) * (k.q - 1)) == 1
        assert k.d_p == k.d % (k.p - 1)
        assert k.d_q == k.d % (k.q - 1)
        assert (k.q_inv * k.q) % k.p == 1

    def test_rejects_undersized_modulus(self):
        with pytest.raises(ValueError):
            rsa.generate_keypair(bits=128, seed=0)

    @pytest.mark.parametrize("engine", ["pure", "c"])
    def test_floor_is_the_smallest_key_that_signs(self, engine,
                                                  monkeypatch):
        # 00 01, eight 0xFF, 00, the 17-byte tag and a 20-byte digest
        # fill 48 bytes: 377 bits.  A 376-bit key could not sign at all.
        if engine == "c":
            pytest.importorskip("cryptography", exc_type=ImportError)
        else:
            monkeypatch.setattr(rsa, "_C_RSA", False)
        assert rsa.MIN_KEY_BITS == 377
        with pytest.raises(ValueError, match="at least 377 bits"):
            rsa.generate_keypair(bits=376, seed=0)
        for bits in (377, 384):
            key = rsa.generate_keypair(bits=bits, seed=0)
            assert key.size_bytes == 48
            assert rsa.verify(key.public_key, b"m", rsa.sign(key, b"m"))

    def test_paper_scale_1024_bits(self):
        key = rsa.generate_keypair(bits=1024, seed=99)
        assert key.n.bit_length() == 1024
        msg = b"RSA-1024 as in Section 7.1"
        assert rsa.verify(key.public_key, msg, rsa.sign(key, msg))


class TestSignVerify:
    def test_roundtrip(self, keypair):
        msg = b"announce 8.8.8.0/24"
        sig = rsa.sign(keypair, msg)
        assert rsa.verify(keypair.public_key, msg, sig)

    def test_signature_length_equals_modulus(self, keypair):
        assert len(rsa.sign(keypair, b"m")) == keypair.size_bytes

    def test_wrong_message_rejected(self, keypair):
        sig = rsa.sign(keypair, b"m1")
        assert not rsa.verify(keypair.public_key, b"m2", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(rsa.sign(keypair, b"m"))
        sig[0] ^= 0x01
        assert not rsa.verify(keypair.public_key, b"m", bytes(sig))

    def test_wrong_key_rejected(self, keypair):
        other = rsa.generate_keypair(bits=TEST_BITS, seed=8)
        sig = rsa.sign(keypair, b"m")
        assert not rsa.verify(other.public_key, b"m", sig)

    def test_wrong_length_signature_rejected(self, keypair):
        assert not rsa.verify(keypair.public_key, b"m", b"short")

    def test_signature_ge_modulus_rejected(self, keypair):
        too_big = (keypair.n).to_bytes(keypair.size_bytes, "big")
        assert not rsa.verify(keypair.public_key, b"m", too_big)

    def test_signing_is_deterministic(self, keypair):
        assert rsa.sign(keypair, b"m") == rsa.sign(keypair, b"m")

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, msg):
        key = rsa.generate_keypair(bits=TEST_BITS, seed=7)
        assert rsa.verify(key.public_key, msg, rsa.sign(key, msg))

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=64))
    def test_cross_message_rejection_property(self, m1, m2):
        key = rsa.generate_keypair(bits=TEST_BITS, seed=7)
        sig = rsa.sign(key, m1)
        assert rsa.verify(key.public_key, m2, sig) == (m1 == m2)


class TestPublicKey:
    def test_fingerprint_stable(self, keypair):
        pk = keypair.public_key
        assert pk.fingerprint() == pk.fingerprint()
        assert len(pk.fingerprint()) == 20

    def test_fingerprints_distinguish_keys(self, keypair):
        other = rsa.generate_keypair(bits=TEST_BITS, seed=11)
        assert keypair.public_key.fingerprint() != \
            other.public_key.fingerprint()


#: Key sizes the engine-agreement property draws: the smallest common
#: size, the simulation default, an odd size and the paper's RSA-1024.
C_ENGINE_BITS = (384, 512, 1000, 1024)

#: DigestInfo header of a SHA-1 PKCS#1 v1.5 signature (RFC 8017 §9.2).
_SHA1_DIGEST_INFO = bytes.fromhex("3021300906052b0e03021a05000414")

_TAMPERS = ("valid", "flip", "other-message", "s=n", "all-ff",
            "truncated", "extended", "zeroed", "type-2", "no-separator",
            "short-padding", "digest-info")


def _raw_sign(key, block):
    """``block`` raised to the private exponent: a signature over any
    block, padded or not."""
    return pow(int.from_bytes(block, "big"), key.d, key.n) \
        .to_bytes(key.size_bytes, "big")


def _tampered(key, kind, message, other, position, signature):
    """A candidate signature for ``message`` and the verdict it is due."""
    size = key.size_bytes
    payload = rsa._DIGEST_TAG + digest(message)
    pad = size - 3 - len(payload)
    if kind == "valid":
        return signature, True
    if kind == "flip":
        flipped = bytearray(signature)
        flipped[position % size] ^= 1 << (position // size % 8)
        return bytes(flipped), False
    if kind == "other-message":
        return rsa.sign(key, other), other == message
    if kind == "s=n":
        return key.n.to_bytes(size, "big"), False
    if kind == "all-ff":
        return b"\xff" * size, False
    if kind == "truncated":
        return signature[:-1], False
    if kind == "extended":
        return signature + b"\x00", False
    if kind == "zeroed":
        return bytes(size), False
    if kind == "type-2":
        block = b"\x00\x02" + b"\xff" * pad + b"\x00" + payload
    elif kind == "no-separator":
        block = b"\x00\x01" + b"\xff" * (pad + 1) + payload
    elif kind == "short-padding":
        block = b"\x00\x01" + b"\xff" * 7 + b"\x00" + \
            b"\xff" * (pad - 7) + payload
    else:
        assert kind == "digest-info"
        wrapped = _SHA1_DIGEST_INFO + payload
        assume(size - 3 - len(wrapped) >= 8)
        block = b"\x00\x01" + b"\xff" * (size - 3 - len(wrapped)) + \
            b"\x00" + wrapped
    assert len(block) == size
    return _raw_sign(key, block), False


class TestCEngine:
    """The OpenSSL path signs the reference bytes, gives the reference
    verdicts, and loads each key once."""

    @pytest.fixture(autouse=True, scope="class")
    def _cryptography(self):
        # Any ImportError, as in the module's own fallback.
        pytest.importorskip("cryptography", exc_type=ImportError)

    @settings(max_examples=120, deadline=None)
    @given(bits=st.sampled_from(C_ENGINE_BITS),
           message=st.binary(max_size=64), other=st.binary(max_size=64),
           tamper=st.sampled_from(_TAMPERS),
           position=st.integers(min_value=0, max_value=8 * 128 - 1))
    def test_c_and_pure_engines_agree(self, bits, message, other, tamper,
                                      position):
        key = rsa.generate_keypair(bits=bits, seed=bits)
        c_signature = rsa.sign(key, message)
        candidate, due = _tampered(key, tamper, message, other, position,
                                   c_signature)
        c_verdict = rsa.verify(key.public_key, message, candidate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "_C_RSA", False)
            pure_signature = rsa.sign(key, message)
            pure_verdict = rsa.verify(key.public_key, message, candidate)
        assert c_signature == pure_signature
        assert c_verdict == pure_verdict == due

    def test_each_key_loads_into_openssl_once(self, monkeypatch):
        from repro.crypto.keys import KeyRegistry, make_identity
        from repro.crypto.signatures import Signer, Verifier

        loads = Counter()
        for cls in (rsa.PrivateKey, rsa.PublicKey):
            prop = vars(cls)["_c_key"]

            def counted(key, load=prop.func, name=cls.__name__):
                loads[name] += 1
                return load(key)

            monkeypatch.setattr(prop, "func", counted)
        registry = KeyRegistry()
        # Unseeded, so no other test has loaded this key object.
        identity = make_identity(65001, registry, bits=TEST_BITS)
        signer, verifier = Signer(identity), Verifier(registry)
        for i in range(5):
            signed = signer.sign(b"update %d" % i)
            assert verifier.verify(signed)
            assert rsa.verify(identity.public_key, signed.signed_bytes(),
                              signed.signature)
        for signed in signer.sign_batch([b"a", b"b", b"c"]):
            assert verifier.verify(signed)
        assert identity.public_key is registry.public_key(65001)
        assert loads == {"PrivateKey": 1, "PublicKey": 1}

    def test_two_node_scenario_runs_on_openssl_alone(self, monkeypatch):
        from repro.runtime.scenario import run_loopback_exchange

        def no_pure_engine(*_args):
            raise AssertionError("pure RSA path taken")

        monkeypatch.setattr(rsa, "_pad_digest", no_pure_engine)
        monkeypatch.setattr(rsa.PrivateKey, "_rsa_sign_int", no_pure_engine)
        side_a, side_b = run_loopback_exchange()
        assert side_a["log_digest"] == \
            "53cab330a7137948786765b4b20e9002f837016d"
        assert side_b["log_digest"] == \
            "99d4e7f4a60ecdc89135ee88a775055badad5f32"
