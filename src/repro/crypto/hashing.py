"""Cryptographic hashing as used by SPIDeR.

The paper (Section 7.1) uses SHA-512 but keeps only the first 20 bytes of
each digest to save space.  Every hash in this reproduction applies the
same truncation (:data:`DIGEST_SIZE`).

Two engines, one digest
-----------------------
Every CPython carries two SHA-512s: OpenSSL's behind ``hashlib.sha512``
and its own builtin (``_sha512`` through 3.11, ``_sha2`` from 3.12).
Both compute FIPS 180-4 SHA-512, so they give the same digest byte for
byte (the tests pin the builtin to the standard's vectors and to
``hashlib``); they differ in cost.  ``hashlib`` pays more per call (its
EVP layer) and OpenSSL's assembly less per byte; they cost the same
near 300 B.  Per digest (fastest of 25 interleaved ``timeit`` runs,
2 vCPUs, CPython 3.11.7, OpenSSL 3.0.19):

==========================================  ===========  =======
input                                       ``hashlib``  builtin
==========================================  ===========  =======
20–66 B (bit and inner nodes, RSA digests)  0.69 µs      0.47 µs
148 B (a message hash)                      0.92 µs      0.78 µs
300 B                                       1.10 µs      1.09 µs
875 B (a median §6.5 chain step)            1.97 µs      2.45 µs
1 000 B (a k = 50 prefix node)              2.19 µs      2.72 µs
2 600 B (a bit-proof payload)               5.01 µs      6.79 µs
==========================================  ===========  =======

Hence the rule.  A Merkle input is at most ``k · DIGEST_SIZE`` bytes
(1 000 B at k = 50) and almost every one is a 21-byte bit node or a
60-byte inner node, so every Merkle hash — :func:`bit_commitment`,
:func:`bit_commitments`, :func:`digest_concat` and the labeling kernels
in :mod:`repro.mtt` — runs on :data:`merkle_sha512`, the builtin where
the interpreter has one and ``hashlib.sha512`` otherwise.  Message
digests (:func:`digest`, :func:`digest_fields`, :func:`digest_iter`, and
through them signatures and the §6.5 log chain) stay on
``hashlib.sha512``, because their time goes to long inputs.  Counted
per call site on the four ``BENCHMARK.json`` workloads (seed 1), 37–51 %
of them are under 250 B (RSA digests, signature payloads, message
hashes, the commitment seed), but 42–62 % are chain steps over log
entries (48–1 881 B, median 743–875 B) and more are bit-proof payloads
(1.7–2.7 kB).  Weighted by the table, the builtin would cost them
16–33 ms more in a whole run (picking the engine by input length would
save 5–14 ms; not tried end to end).  Measured end to end with message
digests on the builtin too, a cold open, which re-checks every chain
step, got slower: ``restart_entries_per_s`` read lower in 27 of 40
pairs, and 5 % lower than with every hash on ``hashlib`` in 10 of 10
on ``durable_churn`` (EXPERIMENTS, "Which engine for message digests").
The timings are CPython 3.11's only: the ``_sha2`` branch is checked
for correctness on 3.12, and its cost is unmeasured.  Which engine ran
never shows in a root, a log or a wire byte, and nothing selects one by
configuration.

Domain separation
-----------------
The paper composes hashes by concatenation, e.g. ``H(b_i || x_i)`` for a bit
node and ``H(l_1 || ... || l_k)`` for an inner node.  Because every label and
random bitstring has the fixed length :data:`DIGEST_SIZE`, plain
concatenation is injective on the inputs the protocol ever hashes, so no
extra framing is required to match the paper.  For hashing variable-length
application messages we provide :func:`digest_fields`, which length-prefixes
each field so distinct field tuples can never collide by concatenation.
"""
from __future__ import annotations

import hashlib
import hmac
from importlib import import_module
from typing import Callable, Iterable, List, Sequence, Union

#: Number of digest bytes retained (the paper truncates SHA-512 to 20 bytes).
DIGEST_SIZE = 20

#: Underlying hash algorithm name (for documentation and sanity checks).
ALGORITHM = "sha512"

_sha512 = hashlib.sha512


def _builtin_sha512() -> Callable[[bytes], hashlib._Hash]:
    """CPython's own SHA-512 constructor, else ``hashlib.sha512``."""
    for module in ("_sha2", "_sha512"):  # CPython 3.12 on; 3.11
        try:
            engine: Callable[[bytes], hashlib._Hash] = \
                import_module(module).sha512
        except ImportError:
            continue
        return engine
    return hashlib.sha512


#: The Merkle hash engine: the SHA-512 constructor every bit commitment
#: and every Merkle label hashes through ("Two engines, one digest").
merkle_sha512 = _builtin_sha512()


def digest(data: bytes) -> bytes:
    """Return the truncated SHA-512 digest of ``data``.

    This is the hash function *H* from the paper: SHA-512 truncated to the
    first :data:`DIGEST_SIZE` bytes (Section 7.1).  ``hashlib`` consumes
    ``bytes``, ``bytearray``, and ``memoryview`` directly, so no copy is
    made on any accepted input type.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"digest() requires bytes, got {type(data).__name__}")
    return _sha512(data).digest()[:DIGEST_SIZE]


def constant_time_eq(a: Union[bytes, bytearray, memoryview],
                     b: Union[bytes, bytearray, memoryview]) -> bool:
    """Timing-safe equality for digests, labels, and signatures.

    Every comparison of attacker-influenced digest/signature material
    must go through this function (lint rule SPDR002): bare ``==`` on
    bytes short-circuits at the first differing byte, leaking the
    position of the mismatch through timing.  Wraps
    :func:`hmac.compare_digest`, which compares in time independent of
    content for equal-length inputs.
    """
    return hmac.compare_digest(bytes(a), bytes(b))


def digest_concat(*parts: bytes) -> bytes:
    """Hash the plain concatenation of ``parts``.

    Mirrors the paper's ``H(l_1 || ... || l_k)``.  Callers must ensure the
    parts have fixed width (as Merkle labels do); use :func:`digest_fields`
    for variable-length data.  Hashes on :data:`merkle_sha512`.
    """
    return merkle_sha512(b"".join(parts)).digest()[:DIGEST_SIZE]


def digest_fields(*fields: bytes) -> bytes:
    """Hash a tuple of variable-length byte fields unambiguously.

    Each field is prefixed with its 4-byte big-endian length, so no two
    distinct tuples produce the same preimage.
    """
    buf = bytearray()
    for field in fields:
        if not isinstance(field, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"digest_fields() requires bytes, got {type(field).__name__}"
            )
        buf += len(field).to_bytes(4, "big")
        buf += field
    return digest(buf)


def digest_iter(parts: Iterable[bytes]) -> bytes:
    """Streaming variant of :func:`digest_concat` for large inputs."""
    h = hashlib.sha512()
    for part in parts:
        h.update(part)
    return h.digest()[:DIGEST_SIZE]


def bit_commitment(bit: int, blinding: bytes) -> bytes:
    """Commit to a single bit: ``H(b || x)`` from VPref step 4.

    ``bit`` must be 0 or 1; ``blinding`` is the random bitstring ``x``.  The
    bit is encoded as a single byte so the preimage has fixed layout.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if len(blinding) != DIGEST_SIZE:
        raise ValueError(
            f"blinding must be {DIGEST_SIZE} bytes (same length as a hash "
            f"value, per Section 5.3), got {len(blinding)}"
        )
    return merkle_sha512((b"\x01" if bit else b"\x00")
                         + blinding).digest()[:DIGEST_SIZE]


def bit_commitments(bits: Sequence[int],
                    blindings: Sequence[bytes]) -> List[bytes]:
    """Batch :func:`bit_commitment`: one commitment per (bit, blinding).

    Labeling an MTT commits to every bit node — hundreds of thousands of
    tiny ``H(b || x)`` hashes per commitment round — so the per-call
    validation and lookup overhead of :func:`bit_commitment` is hoisted
    out of the loop here.  Output is element-wise identical to calling
    :func:`bit_commitment` in a loop (tested).
    """
    if len(bits) != len(blindings):
        raise ValueError("bits and blindings must have equal length")
    sha = merkle_sha512
    size = DIGEST_SIZE
    one, zero = b"\x01", b"\x00"
    out: List[bytes] = []
    append = out.append
    for bit, blinding in zip(bits, blindings):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if len(blinding) != size:
            raise ValueError(
                f"blinding must be {size} bytes, got {len(blinding)}")
        append(sha((one if bit else zero) + blinding).digest()[:size])
    return out
