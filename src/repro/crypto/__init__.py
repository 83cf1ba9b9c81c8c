"""Cryptographic substrate: hashing, RC4 CSPRNG, RSA, keys, envelopes.

This package satisfies assumptions 1–5 of the paper (Section 4.2): a shared
collision-resistant hash function, per-AS key pairs, unforgeable signatures,
replay protection material, and globally known public keys.
"""

from .hashing import DIGEST_SIZE, bit_commitment, digest, digest_concat, \
    digest_fields
from .keys import Identity, KeyRegistry, UnknownKeyError, make_identity
from .rc4 import Rc4, Rc4Csprng
from .rsa import PrivateKey, PublicKey, generate_keypair, sign, verify
from .signatures import Signed, Signer, Verifier

__all__ = [
    "DIGEST_SIZE",
    "bit_commitment",
    "digest",
    "digest_concat",
    "digest_fields",
    "Identity",
    "KeyRegistry",
    "UnknownKeyError",
    "make_identity",
    "Rc4",
    "Rc4Csprng",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "sign",
    "verify",
    "Signed",
    "Signer",
    "Verifier",
]
