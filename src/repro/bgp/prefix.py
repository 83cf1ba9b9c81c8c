"""IPv4 prefixes.

Prefixes are the unit at which routing decisions are made and at which the
MTT (Section 5.2) is indexed: a prefix of length L corresponds to the path
of L branch labels (0/1) from the MTT root, followed by the end-of-prefix
edge.  There are ``2^33 - 1`` possible IPv4 prefixes — lengths 0 through 32
— matching the count the paper gives in Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Dict, Iterator, Tuple, Union

MAX_PREFIX_LEN = 32

#: Decoded prefixes are interned (see :meth:`Prefix.from_bytes`): real
#: update streams repeat the same prefixes constantly, and the universe
#: of distinct prefixes in any workload is small, so decode can usually
#: return a shared immutable instance instead of re-validating and
#: re-allocating.  The table is cleared wholesale when it fills — a
#: crude but branch-cheap bound that keeps memory finite under
#: adversarial (never-repeating) input.
_INTERN_LIMIT = 1 << 16
_INTERNED: Dict[bytes, "Prefix"] = {}


class PrefixError(ValueError):
    """Raised for malformed prefix text or inconsistent fields."""


@total_ordering
@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix ``address/length``.

    ``address`` is the network address as an int with all host bits zero;
    the constructor enforces this so equal prefixes are always equal as
    values.
    """

    address: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= MAX_PREFIX_LEN:
            raise PrefixError(f"prefix length {self.length} out of range")
        if not 0 <= self.address < (1 << 32):
            raise PrefixError(f"address {self.address:#x} out of range")
        if self.address & self._host_mask():
            raise PrefixError(
                f"{self._format_address(self.address)}/{self.length} has "
                "non-zero host bits"
            )

    def _host_mask(self) -> int:
        return (1 << (32 - self.length)) - 1

    @staticmethod
    def _format_address(address: int) -> str:
        return ".".join(str((address >> shift) & 0xFF)
                        for shift in (24, 16, 8, 0))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning /32)."""
        addr_part, slash, len_part = text.partition("/")
        octets = addr_part.split(".")
        if len(octets) != 4:
            raise PrefixError(f"malformed address in {text!r}")
        try:
            values = [int(o) for o in octets]
        except ValueError:
            raise PrefixError(f"malformed address in {text!r}")
        if any(not 0 <= v <= 255 for v in values):
            raise PrefixError(f"octet out of range in {text!r}")
        address = (values[0] << 24) | (values[1] << 16) | \
            (values[2] << 8) | values[3]
        if slash:
            try:
                length = int(len_part)
            except ValueError:
                raise PrefixError(f"malformed length in {text!r}")
        else:
            length = MAX_PREFIX_LEN
        return cls(address=address, length=length)

    @classmethod
    def from_bits(cls, bits: Tuple[int, ...]) -> "Prefix":
        """Build a prefix from its MTT path bits (most significant first)."""
        if len(bits) > MAX_PREFIX_LEN:
            raise PrefixError("too many bits for an IPv4 prefix")
        address = 0
        for bit in bits:
            if bit not in (0, 1):
                raise PrefixError(f"invalid bit {bit!r}")
            address = (address << 1) | bit
        address <<= 32 - len(bits)
        return cls(address=address, length=len(bits))

    def bits(self) -> Tuple[int, ...]:
        """The prefix as a tuple of bits — its path in the MTT."""
        return tuple((self.address >> (31 - i)) & 1
                     for i in range(self.length))

    def iter_bits(self) -> Iterator[int]:
        for i in range(self.length):
            yield (self.address >> (31 - i)) & 1

    def contains(self, other: "Prefix") -> bool:
        """True iff ``other`` is equal to or more specific than ``self``."""
        if other.length < self.length:
            return False
        mask = ((1 << self.length) - 1) << (32 - self.length) \
            if self.length else 0
        return (other.address & mask) == self.address

    def parent(self) -> "Prefix":
        """The immediately covering prefix (one bit shorter)."""
        if self.length == 0:
            raise PrefixError("0.0.0.0/0 has no parent")
        new_len = self.length - 1
        mask = ((1 << new_len) - 1) << (32 - new_len) if new_len else 0
        return Prefix(address=self.address & mask, length=new_len)

    def to_bytes(self) -> bytes:
        """Canonical 5-byte encoding (address + length) for hashing."""
        return self.address.to_bytes(4, "big") + bytes([self.length])

    @classmethod
    def from_bytes(cls,
                   data: Union[bytes, bytearray, memoryview]) -> "Prefix":
        if len(data) != 5:
            raise PrefixError("prefix encoding must be 5 bytes")
        # ``bytes(data)`` is a no-op for bytes input (immutable, same
        # object) and a 5-byte materialization for memoryview/bytearray;
        # either way it is the hashable intern key.  Prefix is frozen,
        # so handing every caller the same instance is safe, and only
        # *valid* encodings enter the table — corrupt ones raise in the
        # constructor before they can be cached.
        key = bytes(data)
        cached = _INTERNED.get(key)
        if cached is None:
            cached = cls(address=int.from_bytes(key[:4], "big"),
                         length=key[4])
            if len(_INTERNED) >= _INTERN_LIMIT:
                _INTERNED.clear()
            _INTERNED[key] = cached
        return cached

    def __str__(self) -> str:
        return f"{self._format_address(self.address)}/{self.length}"

    def __lt__(self, other: "Prefix") -> bool:
        # ``(address, length)`` order without building two tuples: every
        # audit sorts prefixes.
        if not isinstance(other, Prefix):
            return NotImplemented
        if self.address != other.address:
            return self.address < other.address
        return self.length < other.length


#: The default route, useful as a catch-all in examples.
DEFAULT_ROUTE_PREFIX = Prefix(address=0, length=0)
