"""Promises: a partial order over indifference classes (Definition 1).

A promise from an elector to a consumer states, for some pairs of classes,
that any route in the higher class will be preferred over any route in the
lower class.  Nothing is promised within a class or between incomparable
classes.

The promise must be available to the consumer in a representation signed by
the elector (Assumption 6); :meth:`Promise.encode` provides the canonical
bytes that get signed, and :func:`signed_promise` / :func:`verify_signed_promise`
wrap that exchange.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..crypto.hashing import constant_time_eq, digest_fields
from ..crypto.keys import KeyRegistry
from ..crypto.signatures import Signed, Signer, Verifier
from .classes import ClassScheme, RouteOrNull

#: An ordered pair (lower, higher): class ``higher`` is strictly preferred.
OrderPair = Tuple[int, int]


class InconsistentPromiseError(ValueError):
    """Raised when a promise's order pairs contain a cycle."""


def _transitive_closure(pairs: FrozenSet[OrderPair],
                        k: int) -> FrozenSet[OrderPair]:
    """The transitive closure of in-range, irreflexive ``pairs`` over k
    classes: ``pairs`` itself when it is already closed, as every
    total-order and chain promise is.

    Warshall over one int bit-row per class (bit ``h`` of row ``l``:
    ``l`` reaches ``h``), O(k²) row operations; a class that reaches
    itself lies on a cycle.
    """
    rows = [0] * k
    for lower, higher in pairs:
        rows[lower] |= 1 << higher
    for middle in range(k):
        through, bit = rows[middle], 1 << middle
        if through:
            rows = [row | through if row & bit else row for row in rows]
    for cls, row in enumerate(rows):
        if row >> cls & 1:
            other = next(c for c in range(k)
                         if c != cls and row >> c & 1 and rows[c] >> cls & 1)
            raise InconsistentPromiseError(
                f"cycle between classes {cls} and {other}")
    if sum(row.bit_count() for row in rows) == len(pairs):
        return frozenset(pairs)  # the same object for a frozenset
    return frozenset((lower, higher)
                     for lower, row in enumerate(rows)
                     for higher in range(k) if row >> higher & 1)


@dataclass(frozen=True)
class Promise:
    """A promise over a :class:`ClassScheme`.

    ``order`` holds strict preference pairs ``(lower, higher)``; the
    constructor takes any generating set and stores the transitive closure.
    The classes above and below each class are sorted once, on the first
    ask: a commitment asks for them per prefix and per consumer.  They
    are derived from ``order`` and are not fields, so equality, hashing,
    ``repr`` and :meth:`encode` see only the closure.
    """

    scheme: ClassScheme
    order: FrozenSet[OrderPair] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        k = self.scheme.k
        for lower, higher in self.order:
            if not (0 <= lower < k and 0 <= higher < k):
                raise ValueError(
                    f"order pair ({lower}, {higher}) out of range for "
                    f"k={k}"
                )
            if lower == higher:
                raise InconsistentPromiseError(
                    f"class {lower} cannot be preferred over itself"
                )
        object.__setattr__(self, "order",
                           _transitive_closure(self.order, k))

    @cached_property
    def _class_sets(self) -> Tuple[Dict[int, Tuple[int, ...]],
                                   Dict[int, Tuple[int, ...]]]:
        """Per class, the sorted classes above it and below it."""
        above: Dict[int, List[int]] = {}
        below: Dict[int, List[int]] = {}
        for lower, higher in self.order:
            above.setdefault(lower, []).append(higher)
            below.setdefault(higher, []).append(lower)
        return ({c: tuple(sorted(hs)) for c, hs in above.items()},
                {c: tuple(sorted(ls)) for c, ls in below.items()})

    # ------------------------------------------------------------------
    # Order queries

    @property
    def k(self) -> int:
        return self.scheme.k

    def prefers(self, higher: int, lower: int) -> bool:
        """True iff class ``higher`` is strictly preferred over ``lower``."""
        return (lower, higher) in self.order

    def comparable(self, a: int, b: int) -> bool:
        return a == b or self.prefers(a, b) or self.prefers(b, a)

    def classes_above(self, index: int) -> Tuple[int, ...]:
        """All classes strictly preferred over class ``index``.

        These are exactly the classes a consumer whose route landed in
        ``index`` demands 0-bit proofs for (Section 4.5).
        """
        return self._class_sets[0].get(index, ())

    def classes_below(self, index: int) -> Tuple[int, ...]:
        """All classes ``index`` is strictly preferred over: the input
        bits a chosen route of class ``index`` sets (Section 5.3)."""
        return self._class_sets[1].get(index, ())

    def is_violation(self, available: RouteOrNull,
                     exported: RouteOrNull) -> bool:
        """Did exporting ``exported`` while ``available`` existed break us?

        Section 4.1: the promise is broken iff some input r_i is in a class
        strictly more preferred than the class of the exported route.
        """
        return self.prefers(self.scheme.classify(available),
                            self.scheme.classify(exported))

    # ------------------------------------------------------------------
    # Encoding and signing (Assumption 6)

    def encode(self) -> bytes:
        """Canonical byte representation (for signing and hashing)."""
        pair_bytes = [
            lower.to_bytes(2, "big") + higher.to_bytes(2, "big")
            for lower, higher in sorted(self.order)
        ]
        return digest_fields(self.scheme.encode(), *pair_bytes)

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{self.scheme.labels[l]} < {self.scheme.labels[h]}"
            for l, h in sorted(self.order))
        return f"Promise[{pairs or 'trivial'}]"


# ----------------------------------------------------------------------
# Promise constructors


def total_order_promise(scheme: ClassScheme) -> Promise:
    """Classes are ranked by index: 0 least preferred, k-1 most preferred.

    Matches the common case where the class scheme already lists tiers in
    preference order (e.g. :func:`repro.core.classes.path_length_scheme`).
    """
    pairs = {(low, high)
             for low in range(scheme.k) for high in range(low + 1, scheme.k)}
    return Promise(scheme=scheme, order=frozenset(pairs))


def chain_promise(scheme: ClassScheme,
                  chain: Sequence[int]) -> Promise:
    """A promise ordering only the listed classes, least-preferred first."""
    pairs = {(chain[i], chain[j])
             for i in range(len(chain)) for j in range(i + 1, len(chain))}
    return Promise(scheme=scheme, order=frozenset(pairs))


def trivial_promise(scheme: ClassScheme) -> Promise:
    """The empty promise: every class mutually indifferent."""
    return Promise(scheme=scheme, order=frozenset())


# ----------------------------------------------------------------------
# Theorem 5: inconsistent promises across consumers


def find_conflict(promises: Sequence[Promise]) -> Optional[Tuple[int, int]]:
    """Find classes ``(i, j)`` ranked oppositely by two promises.

    Returns None when the promises are mutually consistent.  Per Theorem 5,
    if a conflict exists there are inputs forcing the elector to either
    choose ⊥ or break a promise.
    """
    for a, b in itertools.combinations(promises, 2):
        if a.scheme.k != b.scheme.k:
            raise ValueError("promises must share one class scheme")
        for (lower, higher) in a.order:
            if (higher, lower) in b.order:
                return (lower, higher)
    return None


# ----------------------------------------------------------------------
# Signed promise representations


def signed_promise(signer: Signer, promise: Promise) -> Signed:
    """The elector's signature over the promise's canonical encoding."""
    return signer.sign(b"PROMISE" + promise.encode())


def verify_signed_promise(registry: KeyRegistry, elector: int,
                          promise: Promise, envelope: Signed) -> bool:
    """Check a signed promise representation names this promise."""
    if envelope.signer != elector:
        return False
    if not constant_time_eq(envelope.payload,
                            b"PROMISE" + promise.encode()):
        return False
    return Verifier(registry).verify(envelope)
