"""Signed message envelopes and batch signing.

Everything SPIDeR puts on the wire is signed (Section 6.2).  This module
provides:

* :class:`Signed` — an envelope binding a payload to its signer's AS number,
  so a signature can always be attributed;
* :class:`Signer` / :class:`Verifier` — per-AS signing and verification
  frontends that also publish operation counters to the obs registry, which
  the evaluation uses to attribute CPU cost to cryptography (Section 7.5);
* :meth:`Signer.sign_batch` — "routers can sign messages in batches"
  (Section 6.2), which is why the paper observes only 3,913 signatures
  for 38,696 BGP updates; the recorder's outbox decides what a batch is.

A batch signature signs the hash-concatenation of all payloads in the batch;
each :class:`Signed` then carries the sibling digests it needs so it remains
independently verifiable, exactly like a tiny Merkle authentication list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import rsa
from ..obs.registry import get_registry
from .hashing import DIGEST_SIZE, constant_time_eq, digest, \
    digest_fields
from .keys import Identity, KeyRegistry


@dataclass(frozen=True, slots=True)
class Signed:
    """A payload plus an attributable signature.

    ``batch_digests``/``batch_index`` are populated for batch-signed
    messages: the signature then covers ``digest_fields(*batch_digests)``
    where ``batch_digests[batch_index] == digest(payload)``.  For singleton
    signatures both fields are empty/zero and the signature covers the
    payload digest directly.
    """

    signer: int
    payload: bytes
    signature: bytes
    batch_digests: Tuple[bytes, ...] = ()
    batch_index: int = 0

    def signed_bytes(self) -> bytes:
        """The exact byte string the RSA signature covers."""
        if self.batch_digests:
            return _batch_root(self.signer, self.batch_digests)
        return _single_root(self.signer, self.payload)

    def wire_size(self) -> int:
        """Serialized size in bytes, what §7.6's traffic counts.

        A batch is transmitted as a unit to one receiver (the recorder
        groups its outbox per neighbor), so the shared signature and
        digest list are amortized across the batch members.
        """
        overhead = 4 + 4 + 4  # signer + index + count framing
        if self.batch_digests:
            shared = len(self.signature) + \
                DIGEST_SIZE * len(self.batch_digests)
            share = -(-shared // len(self.batch_digests))  # ceil div
            return len(self.payload) + overhead + share
        return len(self.payload) + len(self.signature) + overhead


def _single_root(signer: int, payload: bytes) -> bytes:
    return digest_fields(b"single", signer.to_bytes(4, "big"), payload)


def _batch_root(signer: int, digests: Sequence[bytes]) -> bytes:
    return digest_fields(b"batch", signer.to_bytes(4, "big"), *digests)


class Signer:
    """Signs payloads on behalf of one AS identity.

    Every operation is published to the default registry:
    ``signatures_made_total`` / ``payloads_signed_total`` counters
    (labeled by ``node``), a ``sign_seconds`` duration histogram, and a
    ``sign_batch_size`` histogram recording how well Nagle batching
    amortizes RSA operations (Section 6.2 / 7.5).
    """

    def __init__(self, identity: Identity):
        self.identity = identity
        self._registry = get_registry()

    @property
    def asn(self) -> int:
        return self.identity.asn

    def _observe(self, payloads: int, seconds: float) -> None:
        node = f"as{self.asn}"
        self._registry.counter("signatures_made_total", node=node).inc()
        self._registry.counter("payloads_signed_total",
                               node=node).inc(payloads)
        self._registry.histogram("sign_seconds").observe(seconds)
        self._registry.histogram("sign_batch_size").observe(payloads)

    def sign(self, payload: bytes) -> Signed:
        """Sign a single payload."""
        start = time.perf_counter()
        signature = rsa.sign(self.identity.private_key,
                             _single_root(self.asn, payload))
        self._observe(1, time.perf_counter() - start)
        return Signed(signer=self.asn, payload=payload, signature=signature)

    def sign_batch(self, payloads: Sequence[bytes]) -> List[Signed]:
        """Sign several payloads with one RSA operation.

        Returns one :class:`Signed` per payload; all share the signature but
        each carries the batch digest list so it verifies independently.
        """
        if not payloads:
            return []
        if len(payloads) == 1:
            return [self.sign(payloads[0])]
        start = time.perf_counter()
        digests = tuple(digest(p) for p in payloads)
        signature = rsa.sign(self.identity.private_key,
                             _batch_root(self.asn, digests))
        self._observe(len(payloads), time.perf_counter() - start)
        return [
            Signed(signer=self.asn, payload=p, signature=signature,
                   batch_digests=digests, batch_index=i)
            for i, p in enumerate(payloads)
        ]


class Verifier:
    """Verifies :class:`Signed` envelopes against a key registry.

    Publishes ``signatures_checked_total`` (labeled by outcome) and a
    ``verify_seconds`` histogram to the default registry.
    """

    def __init__(self, registry: KeyRegistry):
        self.registry = registry
        self._obs = get_registry()

    def verify(self, signed: Signed) -> bool:
        """Check attribution and signature; False on any mismatch."""
        if not self.registry.knows(signed.signer):
            self._obs.counter("signatures_checked_total",
                              outcome="unknown_signer").inc()
            return False
        if signed.batch_digests:
            if not 0 <= signed.batch_index < len(signed.batch_digests):
                self._obs.counter("signatures_checked_total",
                                  outcome="bad_batch").inc()
                return False
            if not constant_time_eq(
                    digest(signed.payload),
                    signed.batch_digests[signed.batch_index]):
                self._obs.counter("signatures_checked_total",
                                  outcome="bad_batch").inc()
                return False
        start = time.perf_counter()
        ok = rsa.verify(self.registry.public_key(signed.signer),
                        signed.signed_bytes(), signed.signature)
        self._obs.histogram("verify_seconds").observe(
            time.perf_counter() - start)
        self._obs.counter("signatures_checked_total",
                          outcome="valid" if ok else "invalid").inc()
        return ok
