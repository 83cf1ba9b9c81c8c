"""RC4 stream cipher and the CSPRNG used for MTT blinding strings.

The SPIDeR prototype (Section 7.1) implements its cryptographically secure
pseudo-random number generator by "encrypting sequences of zeroes with RC4,
discarding the first 3,072 bytes to mitigate known weaknesses in RC4".  The
generator is seeded with a fresh secret per commitment (Section 6.5) so the
proof generator can later *reconstruct* the blinding bitstrings from the
stored seed instead of storing every bitstring.

RC4 is obsolete as a cipher; it is reproduced here because the paper's
storage result (32 bytes of MTT data per commitment, Section 7.7) depends on
exactly this reconstruct-from-seed design.  Nothing outside this module
depends on RC4 specifically — any deterministic seeded generator with the
same interface would do.

Two keystream engines, one stream
---------------------------------
Labeling an MTT draws one 20-byte bitstring per bit node and per dummy
node, so the keystream rate bounds a commitment round (§7.5).
:class:`Rc4Csprng` therefore takes its keystream from the ARC4 cipher of
the installed ``cryptography`` package (OpenSSL, ~30× the pure-Python
rate) whenever that package imports, accepts the key length and has the
algorithm enabled.  Every recorder seed is a 20-byte digest (160 bits, a
length ARC4 accepts), so live rounds and §6.5 reconstructions take that
path.  Anything else runs :class:`Rc4`, the from-scratch textbook KSA +
PRGA, which RFC 6229 vectors pin and the C path is tested against.  Both
produce the same RC4 keystream byte for byte, so roots and logs do not
depend on which engine ran, and nothing selects one by configuration.
"""

from __future__ import annotations

import re
from typing import Callable, List

from .hashing import DIGEST_SIZE

try:
    from cryptography.exceptions import UnsupportedAlgorithm
    from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4
    from cryptography.hazmat.primitives.ciphers import Cipher
    #: Key lengths (bytes) the installed C ARC4 accepts.
    _C_KEY_BYTES = frozenset(bits // 8 for bits in ARC4.key_sizes)
except ImportError:  # the pure-Python engine alone
    _C_KEY_BYTES = frozenset()

#: Bytes of keystream discarded after keying, per the paper (RC4-drop3072).
DROP_BYTES = 3072

#: Splits a draw into :data:`DIGEST_SIZE`-byte bitstrings in one C call.
_BITSTRING = re.compile(b".{%d}" % DIGEST_SIZE, re.DOTALL)


class Rc4:
    """Plain RC4 keystream generator (KSA + PRGA)."""

    __slots__ = ("_state", "_i", "_j")

    def __init__(self, key: bytes):
        if not 1 <= len(key) <= 256:
            raise ValueError("RC4 key must be between 1 and 256 bytes")
        state = list(range(256))
        j = 0
        for i in range(256):
            j = (j + state[i] + key[i % len(key)]) & 0xFF
            state[i], state[j] = state[j], state[i]
        self._state = state
        self._i = 0
        self._j = 0

    def keystream(self, n: int) -> bytes:
        """Return the next ``n`` keystream bytes."""
        if n < 0:
            raise ValueError("keystream length must be non-negative")
        S = self._state
        i, j = self._i, self._j
        out = bytearray(n)
        for k in range(n):
            i = (i + 1) & 0xFF
            j = (j + S[i]) & 0xFF
            S[i], S[j] = S[j], S[i]
            out[k] = S[(S[i] + S[j]) & 0xFF]
        self._i, self._j = i, j
        return bytes(out)

    def encrypt(self, data: bytes) -> bytes:
        """XOR ``data`` with the keystream (encryption == decryption)."""
        stream = self.keystream(len(data))
        return bytes(a ^ b for a, b in zip(data, stream))


def _keystream(key: bytes) -> Callable[[int], bytes]:
    """The RC4 keystream under ``key`` as a draw-``n``-bytes function:
    the installed C ARC4 when it takes the key, else :class:`Rc4`."""
    if len(key) in _C_KEY_BYTES:
        try:
            encrypt = Cipher(ARC4(key), mode=None).encryptor().update
        except UnsupportedAlgorithm:  # OpenSSL built without legacy RC4
            pass
        else:
            # Encrypting zeroes yields the raw keystream.
            return lambda n: encrypt(bytes(n))
    return Rc4(key).keystream


class Rc4Csprng:
    """Seeded deterministic generator for blinding bitstrings.

    Encrypting zeroes with RC4 yields the raw keystream, so this simply
    drops :data:`DROP_BYTES` and then serves keystream bytes.  Two instances
    built from the same seed produce identical output, which is what lets
    the proof generator rebuild a past MTT's random bitstrings from the
    32-byte stored seed (Section 6.5).  Every draw is the next slice of
    one keystream, so the bytes served do not depend on how draws are
    batched.
    """

    __slots__ = ("_seed", "_keystream")

    def __init__(self, seed: bytes):
        if len(seed) == 0:
            raise ValueError("CSPRNG seed must be non-empty")
        self._seed = bytes(seed)
        self._keystream = _keystream(self._seed[:256])
        self._keystream(DROP_BYTES)

    @property
    def seed(self) -> bytes:
        """The seed this generator was built from (stored in the log)."""
        return self._seed

    def bitstring(self) -> bytes:
        """Return one blinding bitstring.

        :spiderlint-contract: source(commit-randomness)

        Per Section 5.3, all random bitstrings must have the same length as
        a hash value so that dummy labels are indistinguishable from real
        Merkle labels.  The bitstring is private until it enters a bit
        commitment ``H(b||x)`` or is selectively revealed by a proof.
        """
        return self._keystream(DIGEST_SIZE)

    def bitstrings(self, n: int) -> List[bytes]:
        """Return ``n`` consecutive bitstrings in one draw.

        :spiderlint-contract: source(commit-randomness)

        Equivalent to ``[self.bitstring() for _ in range(n)]`` but pays
        the per-draw cost once and splits the draw in one regex pass —
        the labeling pass uses this to blind an entire MTT.
        """
        return _BITSTRING.findall(self.bytes(n * DIGEST_SIZE))

    def bytes(self, n: int) -> bytes:
        """Return ``n`` raw pseudo-random bytes."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        return self._keystream(n)
