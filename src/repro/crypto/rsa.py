"""RSA signatures (the paper uses RSA-1024, Section 7.1).

Miller–Rabin primality testing, key generation, and deterministic
PKCS#1 v1.5 signing over the truncated SHA-512 digest from
:mod:`repro.crypto.hashing`.

Key generation accepts an optional seed so that simulations are fully
deterministic; production users should omit the seed, in which case the
operating system's entropy source is used.

Two engines, one signature
--------------------------
The signed block is ``00 01 FF..FF 00 TAG DIGEST``: PKCS#1 v1.5 type-1
padding around a 37-byte payload, with a fixed tag where a DigestInfo
would be.  An audit signs once per bit proof and ingest verifies twice
per announce, so :func:`sign` and :func:`verify` run that payload
through the RSA of the installed ``cryptography`` package whenever it
imports with ``NoDigestInfo`` (OpenSSL; at 1024 bits on a 2-vCPU x86
box, 93 µs against 1 313 µs per sign and 8 µs against 50 µs per
verify).  OpenSSL pads the payload exactly as :func:`_pad_digest` does
and hands it back on recovery.  Each key loads its OpenSSL object once,
with OpenSSL's key validation, and keeps it.  Without the package the
CRT ``pow`` signs and ``pow(s, e, n)`` verifies; they are the reference
the C path is tested against.  Both give the same signature bytes and
the same verdicts, so logs and roots do not depend on which engine ran,
and nothing selects one by configuration.

Security note: the C path is OpenSSL's.  The pure path is a readable
implementation for a research artifact: it performs no blinding and is
not constant-time; do not use it to protect real traffic.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .hashing import DIGEST_SIZE, constant_time_eq, digest

try:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.padding import PKCS1v15
    from cryptography.hazmat.primitives.asymmetric.rsa import \
        RSAPrivateNumbers, RSAPublicNumbers
    from cryptography.hazmat.primitives.asymmetric.utils import NoDigestInfo
    _C_RSA = True
except ImportError:  # the pure-Python engine alone
    _C_RSA = False

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.rsa import \
        RSAPrivateKey, RSAPublicKey

#: Default modulus size, matching the paper's RSA-1024.
DEFAULT_KEY_BITS = 1024

#: Fixed public exponent (F4), the universal modern choice.
PUBLIC_EXPONENT = 65537

# Small primes used to cheaply reject most composite candidates before
# running Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

# ASN.1-ish prefix tag marking "truncated SHA-512" inside the padded block.
# (Real PKCS#1 v1.5 embeds a DigestInfo DER structure; we embed a fixed tag
# with the same disambiguation role.)
_DIGEST_TAG = b"repro:sha512/160:"

#: PKCS#1 v1.5 requires at least eight 0xFF padding bytes.
_MIN_PAD_BYTES = 8

#: The smallest modulus whose block holds ``00 01``, the minimum padding,
#: ``00``, the tag and a digest (48 bytes): 377 bits.
MIN_KEY_BITS = 8 * (3 + _MIN_PAD_BYTES + len(_DIGEST_TAG) + DIGEST_SIZE
                    - 1) + 1


def _miller_rabin(n: int, rounds: int, rng: random.Random) -> bool:
    """Probabilistic primality test; False means definitely composite."""
    if n < 2:
        return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int, rng: Optional[random.Random] = None,
                      rounds: int = 40) -> bool:
    """Return True if ``n`` is prime with overwhelming probability."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n, rounds, rng or random.Random(secrets.randbits(64)))


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size_bytes(self) -> int:
        """Modulus size in bytes; equals the signature length."""
        return (self.bits + 7) // 8

    def fingerprint(self) -> bytes:
        """Stable identifier for this key (hash of its encoding)."""
        return digest(self.n.to_bytes(self.size_bytes, "big")
                      + self.e.to_bytes(4, "big"))

    @cached_property
    def _c_key(self) -> RSAPublicKey:
        """This key as an OpenSSL object, loaded once (C path only)."""
        return RSAPublicNumbers(self.e, self.n).public_key()


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key with CRT components for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @cached_property
    def public_key(self) -> PublicKey:
        """The public half; one object per key, so it loads once too."""
        return PublicKey(n=self.n, e=self.e)

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _c_key(self) -> RSAPrivateKey:
        """This key as an OpenSSL object, loaded and validated once (C
        path only)."""
        return RSAPrivateNumbers(
            p=self.p, q=self.q, d=self.d, dmp1=self.d_p, dmq1=self.d_q,
            iqmp=self.q_inv,
            public_numbers=RSAPublicNumbers(self.e, self.n)).private_key()

    def _rsa_sign_int(self, m: int) -> int:
        """Private-key operation via the Chinese Remainder Theorem."""
        s_p = pow(m % self.p, self.d_p, self.p)
        s_q = pow(m % self.q, self.d_q, self.q)
        h = (self.q_inv * (s_p - s_q)) % self.p
        return s_q + h * self.q


#: Memoized seeded keypairs.  Seeded generation is a pure function of
#: (bits, seed), and simulations (notably adversarial campaigns, which
#: stand up several deployments per run) request the same identities
#: over and over; PrivateKey is frozen, so sharing instances is safe.
_seeded_cache: Dict[Tuple[int, int], PrivateKey] = {}


def generate_keypair(bits: int = DEFAULT_KEY_BITS,
                     seed: Optional[int] = None) -> PrivateKey:
    """Generate an RSA keypair.

    :spiderlint-contract: source(rsa-private)

    ``seed`` makes generation deterministic (for reproducible simulations);
    omit it for real randomness.  The returned key is private material
    (§7.1): only ``sign`` output and the ``public_key`` half may reach
    a public surface.
    """
    if bits < MIN_KEY_BITS:
        raise ValueError(
            f"modulus must be at least {MIN_KEY_BITS} bits to hold a "
            "padded digest"
        )
    if seed is not None:
        cached = _seeded_cache.get((bits, seed))
        if cached is not None:
            return cached
    rng = random.Random(seed) if seed is not None else \
        random.Random(secrets.randbits(128))
    e = PUBLIC_EXPONENT
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        key = PrivateKey(
            n=n, e=e, d=d, p=p, q=q,
            d_p=d % (p - 1), d_q=d % (q - 1),
            q_inv=pow(q, -1, p),
        )
        if seed is not None:
            _seeded_cache[(bits, seed)] = key
        return key


def _pad_digest(h: bytes, size: int) -> int:
    """EMSA-PKCS1-v1_5-style encoding of a digest into a ``size``-byte int.

    Layout: ``0x00 0x01 FF..FF 0x00 TAG DIGEST``.
    """
    payload = _DIGEST_TAG + h
    pad_len = size - 3 - len(payload)
    if pad_len < _MIN_PAD_BYTES:
        raise ValueError("key too small for padded digest")
    block = b"\x00\x01" + b"\xff" * pad_len + b"\x00" + payload
    return int.from_bytes(block, "big")


def sign(key: PrivateKey, message: bytes) -> bytes:
    """Sign ``message`` (hashed internally) and return the raw signature."""
    h = digest(message)
    if _C_RSA:
        signature: bytes = key._c_key.sign(_DIGEST_TAG + h, PKCS1v15(),
                                           NoDigestInfo())
        return signature
    s = key._rsa_sign_int(_pad_digest(h, key.size_bytes))
    return s.to_bytes(key.size_bytes, "big")


def verify(key: PublicKey, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature on ``message``."""
    if len(signature) != key.size_bytes:
        return False
    s = int.from_bytes(signature, "big")
    if s >= key.n:
        return False
    h = digest(message)
    if _C_RSA:
        try:
            recovered = key._c_key.recover_data_from_signature(
                signature, PKCS1v15(), None)
        except (InvalidSignature, ValueError):
            return False
        return constant_time_eq(recovered, _DIGEST_TAG + h)
    m = pow(s, key.e, key.n)
    try:
        expected = _pad_digest(h, key.size_bytes)
    except ValueError:
        return False
    return m == expected
