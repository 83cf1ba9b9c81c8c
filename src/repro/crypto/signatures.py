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

A batch is paid for once on the receiving side too: the members of a burst
share one :class:`BatchDigests`, which carries the verdict RSA gave its
root, so the other members skip the RSA operation and the root hash, but
every member still passes its own checks (known signer, index in range,
payload digest in its slot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import rsa
from ..obs.metrics import Counter, Histogram
from ..obs.registry import Registry, get_registry
from .hashing import constant_time_eq, digest, digest_fields
from .keys import Identity, KeyRegistry


class BatchDigests(Tuple[bytes, ...]):
    """The digest list every member of one batch shares.

    ``verified_by`` is ``(n, e, signer, signature)`` of the last batch
    signature RSA accepted over this list, or ``None``: with the digests,
    everything ``rsa.verify`` reads for the root.  The list is immutable,
    so the verdict holds as long as the members that share it live.

    ``signature`` is the batch signature the codec last decoded with
    this list, or ``None``: a member whose signature bytes equal it
    holds this object instead of a copy of its own, and a member whose
    bytes differ keeps them and makes them the list's
    (:func:`repro.spider.codec._read_signed`).  Only equal bytes are
    shared, so it is a memory saving and never a verdict.
    """

    verified_by: Optional[Tuple[int, int, int, bytes]] = None
    signature: Optional[bytes] = None


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


def _single_root(signer: int, payload: bytes) -> bytes:
    return digest_fields(b"single", signer.to_bytes(4, "big"), payload)


def _batch_root(signer: int, digests: Sequence[bytes]) -> bytes:
    return digest_fields(b"batch", signer.to_bytes(4, "big"), *digests)


class Signer:
    """Signs payloads on behalf of one AS identity.

    Every operation is published to the default registry:
    ``signatures_made_total`` / ``payloads_signed_total`` counters
    (labeled by ``node``, or by the host's ``labels``), a
    ``sign_seconds`` duration histogram, and a
    ``sign_batch_size`` histogram recording how well Nagle batching
    amortizes RSA operations (Section 6.2 / 7.5).
    """

    def __init__(self, identity: Identity,
                 labels: Optional[Mapping[str, str]] = None):
        self.identity = identity
        self._labels = dict(labels) if labels is not None \
            else {"node": f"as{identity.asn}"}
        self._registry = get_registry()
        # Looked up on the first signature, not here: a signer that
        # never signs (a cold open) adds no series to the registry.
        self._cells: Optional[Tuple[Counter, Counter, Histogram,
                                    Histogram]] = None

    @property
    def asn(self) -> int:
        return self.identity.asn

    def _observe(self, payloads: int, seconds: float) -> None:
        cells = self._cells
        if cells is None:
            labels = self._labels
            registry = self._registry
            cells = self._cells = (
                registry.counter("signatures_made_total", **labels),
                registry.counter("payloads_signed_total", **labels),
                registry.histogram("sign_seconds"),
                registry.histogram("sign_batch_size"))
        signatures, signed_payloads, sign_seconds, batch_size = cells
        signatures.inc()
        signed_payloads.inc(payloads)
        sign_seconds.observe(seconds)
        batch_size.observe(payloads)

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
        digests = BatchDigests(digest(p) for p in payloads)
        signature = rsa.sign(self.identity.private_key,
                             _batch_root(self.asn, digests))
        self._observe(len(payloads), time.perf_counter() - start)
        return [
            Signed(signer=self.asn, payload=p, signature=signature,
                   batch_digests=digests, batch_index=i)
            for i, p in enumerate(payloads)
        ]


class _VerifyCells:
    """One obs registry's verifier cells (:meth:`Registry.cells`):
    ``signatures_checked_total`` per outcome, each made on its first
    count (no series at zero), and ``verify_seconds``, made on the first
    RSA check."""

    __slots__ = ("registry", "_checked", "_seconds")

    def __init__(self, registry: Registry):
        self.registry = registry
        self._checked: Dict[str, Counter] = {}
        self._seconds: Optional[Histogram] = None

    def checked(self, outcome: str) -> Counter:
        cell = self._checked.get(outcome)
        if cell is None:
            cell = self._checked[outcome] = self.registry.counter(
                "signatures_checked_total", outcome=outcome)
        return cell

    def seconds(self) -> Histogram:
        cell = self._seconds
        if cell is None:
            cell = self._seconds = self.registry.histogram(
                "verify_seconds")
        return cell


class Verifier:
    """Verifies :class:`Signed` envelopes against a key registry.

    Publishes ``signatures_checked_total`` (labeled by outcome; one per
    envelope checked, whether or not it reached RSA) and a
    ``verify_seconds`` histogram of the RSA operations to the obs
    registry that is the default when it is built.
    """

    def __init__(self, registry: KeyRegistry):
        self.registry = registry
        self._obs = get_registry()

    def verify(self, signed: Signed) -> bool:
        """Check attribution and signature; False on any mismatch."""
        cells = self._obs.cells(_VerifyCells)
        if not self.registry.knows(signed.signer):
            cells.checked("unknown_signer").inc()
            return False
        key = self.registry.public_key(signed.signer)
        verdict = (key.n, key.e, signed.signer, signed.signature)
        digests = signed.batch_digests
        if digests:
            if not 0 <= signed.batch_index < len(digests):
                cells.checked("bad_batch").inc()
                return False
            if not constant_time_eq(digest(signed.payload),
                                    digests[signed.batch_index]):
                cells.checked("bad_batch").inc()
                return False
            if isinstance(digests, BatchDigests) and \
                    digests.verified_by == verdict:
                cells.checked("valid").inc()
                return True
        start = time.perf_counter()
        ok = rsa.verify(key, signed.signed_bytes(), signed.signature)
        cells.seconds().observe(time.perf_counter() - start)
        cells.checked("valid" if ok else "invalid").inc()
        if ok and isinstance(digests, BatchDigests):
            digests.verified_by = verdict
        return ok
