"""SPIDeR wire messages (Section 6.2).

Every BGP UPDATE is re-announced through SPIDeR with signatures and
acknowledgments:

* announcement — ``σ_E(ANNOUNCE, t, C, p, σ_P(r'), σ_E(r))`` where ``t``
  is a timestamp (doubling as a nonce), ``C`` the recipient AS, ``p`` the
  prefix, ``σ_P(r')`` the underlying signed route the elector imported
  (absent for locally originated routes), and ``σ_E(r)`` the elector's
  inner signature over the route, which the consumer reuses when it
  propagates the route to its own consumers;
* withdrawal — ``σ_E(WITHDRAW, t, C, p)``;
* acknowledgment — ``σ_r(ACK, t, C, H(m))``;
* commitment — the signed MTT root, broadcast periodically;
* RE-ANNOUNCE — the extended-verification variant (Section 6.6) with a
  distinct type tag so it can never stand in for an original.

All payloads are canonical byte encodings, so the signatures bind every
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..crypto.hashing import constant_time_eq, digest, digest_fields
from ..crypto.keys import KeyRegistry
from ..crypto.signatures import Signed, Signer, Verifier
from ..mtt.proofs import MttBitProof

#: The millisecond grid ends here (2**51 ms, about 71 000 years).  Below
#: it ``ms / 1000`` as a float rounds back to exactly ``ms``, so a
#: decoded timestamp re-encodes to the bytes it came from; above it the
#: round trip can land a millisecond off.  :func:`time_bytes` refuses a
#: timestamp past it and the codec refuses to decode one.
TIME_MS_LIMIT = 1 << 51


def time_bytes(t: float) -> bytes:
    """The millisecond grid: a timestamp as 8 big-endian bytes.

    The one definition under every signature payload, wire message, log
    entry and commitment seed.  Millisecond resolution keeps the
    encoding stable across replay, and it is also the nonce
    resolution: the paper's timestamps "double as
    nonces" (Section 6.2), so two *logically distinct* messages to the
    same peer within the same millisecond would encode identical nonce
    bytes and be indistinguishable as replays.  The recorder stamps each
    outgoing message with the time it was queued, not with its flush's,
    and nothing yet enforces one message per (peer, millisecond): that
    nonce rule is open in ROADMAP.md's integer-time item.

    Timestamps are seconds since an epoch and can never be negative; a
    negative value would wrap the unsigned encoding into a huge bogus
    nonce, so it is rejected outright, as is one past
    :data:`TIME_MS_LIMIT`.
    """
    if t < 0:
        raise ValueError(f"negative timestamp {t!r}")
    ms = int(round(t * 1000))
    if ms >= TIME_MS_LIMIT:
        raise ValueError(f"timestamp {t!r} is past the millisecond grid")
    return ms.to_bytes(8, "big")


def same_millisecond(a: float, b: float) -> bool:
    """Whether two timestamps name the same point of the millisecond
    grid: the rule for matching a commit time, since a commitment that
    went through the codec carries only its grid time.  A timestamp
    :func:`time_bytes` refuses matches nothing."""
    try:
        return time_bytes(a) == time_bytes(b)
    except ValueError:
        return False


def route_signature_payload(route: Route) -> bytes:
    """Payload of the inner ``σ_E(r)`` route signature."""
    return _route_signature_payload(route.to_bytes())


def _route_signature_payload(route_bytes: bytes) -> bytes:
    return digest_fields(b"SPIDER-ROUTE", route_bytes)


def sign_route(signer: Signer, route: Route) -> Signed:
    return signer.sign(route_signature_payload(route))


def announce_payload(sender: int, receiver: int, timestamp: float,
                     route: Route, underlying: Optional[Signed],
                     route_sig: Signed, reannounce: bool = False) -> bytes:
    return _announce_payload(sender, receiver, timestamp,
                             route.prefix.to_bytes(), route.to_bytes(),
                             underlying, route_sig, reannounce)


def _announce_payload(sender: int, receiver: int, timestamp: float,
                      prefix_bytes: bytes, route_bytes: bytes,
                      underlying: Optional[Signed], route_sig: Signed,
                      reannounce: bool) -> bytes:
    tag = b"SPIDER-REANNOUNCE" if reannounce else b"SPIDER-ANNOUNCE"
    underlying_part = b"" if underlying is None else (
        underlying.payload + underlying.signature)
    return digest_fields(
        tag, sender.to_bytes(4, "big"), receiver.to_bytes(4, "big"),
        time_bytes(timestamp), prefix_bytes, route_bytes,
        underlying_part, route_sig.signature)


@dataclass(frozen=True, slots=True)
class SpiderAnnounce:
    """A signed, timestamped route announcement."""

    sender: int
    receiver: int
    timestamp: float
    route: Route
    #: ``σ_P(r')``: the signed route the sender itself imported (None for
    #: locally originated prefixes).
    underlying: Optional[Signed]
    #: ``σ_E(r)``: the sender's inner signature over the route.
    route_sig: Signed
    envelope: Signed
    reannounce: bool = False

    @classmethod
    def make(cls, signer: Signer, receiver: int, timestamp: float,
             route: Route, underlying: Optional[Signed],
             reannounce: bool = False) -> "SpiderAnnounce":
        route_sig = sign_route(signer, route)
        payload = announce_payload(signer.asn, receiver, timestamp, route,
                                   underlying, route_sig,
                                   reannounce=reannounce)
        return cls(sender=signer.asn, receiver=receiver,
                   timestamp=timestamp, route=route,
                   underlying=underlying, route_sig=route_sig,
                   envelope=signer.sign(payload), reannounce=reannounce)

    @property
    def prefix(self) -> Prefix:
        return self.route.prefix

    def message_hash(self) -> bytes:
        return digest(self.envelope.payload + self.envelope.signature)

    def valid(self, registry: KeyRegistry) -> bool:
        route_sig = self.route_sig
        if self.envelope.signer != self.sender or \
                route_sig.signer != self.sender:
            return False
        # One encoding of the route serves both payload rebuilds.
        route_bytes = self.route.to_bytes()
        verifier = Verifier(registry)
        if not (constant_time_eq(route_sig.payload,
                                 _route_signature_payload(route_bytes))
                and verifier.verify(route_sig)):
            return False
        if self.underlying is not None and \
                not verifier.verify(self.underlying):
            return False
        expected = _announce_payload(self.sender, self.receiver,
                                     self.timestamp,
                                     self.route.prefix.to_bytes(),
                                     route_bytes,
                                     self.underlying, route_sig,
                                     self.reannounce)
        return constant_time_eq(self.envelope.payload, expected) and \
            verifier.verify(self.envelope)


def withdraw_payload(sender: int, receiver: int, timestamp: float,
                     prefix: Prefix) -> bytes:
    return digest_fields(b"SPIDER-WITHDRAW", sender.to_bytes(4, "big"),
                         receiver.to_bytes(4, "big"),
                         time_bytes(timestamp), prefix.to_bytes())


@dataclass(frozen=True, slots=True)
class SpiderWithdraw:
    """``σ_E(WITHDRAW, t, C, p)``."""

    sender: int
    receiver: int
    timestamp: float
    prefix: Prefix
    envelope: Signed

    @classmethod
    def make(cls, signer: Signer, receiver: int, timestamp: float,
             prefix: Prefix) -> "SpiderWithdraw":
        payload = withdraw_payload(signer.asn, receiver, timestamp, prefix)
        return cls(sender=signer.asn, receiver=receiver,
                   timestamp=timestamp, prefix=prefix,
                   envelope=signer.sign(payload))

    def message_hash(self) -> bytes:
        return digest(self.envelope.payload + self.envelope.signature)

    def valid(self, registry: KeyRegistry) -> bool:
        if self.envelope.signer != self.sender:
            return False
        expected = withdraw_payload(self.sender, self.receiver,
                                    self.timestamp, self.prefix)
        return constant_time_eq(self.envelope.payload, expected) and \
            Verifier(registry).verify(self.envelope)


def ack_payload(acker: int, sender: int, timestamp: float,
                message_hash: bytes) -> bytes:
    return digest_fields(b"SPIDER-ACK", acker.to_bytes(4, "big"),
                         sender.to_bytes(4, "big"),
                         time_bytes(timestamp), message_hash)


@dataclass(frozen=True, slots=True)
class SpiderAck:
    """``σ_r(ACK, t, C, H(m))``: the receiver's receipt for a message."""

    acker: int
    sender: int
    timestamp: float
    message_hash: bytes
    envelope: Signed

    @classmethod
    def make(cls, signer: Signer, sender: int, timestamp: float,
             message_hash: bytes) -> "SpiderAck":
        payload = ack_payload(signer.asn, sender, timestamp, message_hash)
        return cls(acker=signer.asn, sender=sender, timestamp=timestamp,
                   message_hash=message_hash,
                   envelope=signer.sign(payload))

    def valid(self, registry: KeyRegistry) -> bool:
        if self.envelope.signer != self.acker:
            return False
        expected = ack_payload(self.acker, self.sender, self.timestamp,
                               self.message_hash)
        return constant_time_eq(self.envelope.payload, expected) and \
            Verifier(registry).verify(self.envelope)


def commitment_payload(elector: int, commit_time: float,
                       root: bytes) -> bytes:
    return digest_fields(b"SPIDER-COMMIT", elector.to_bytes(4, "big"),
                         time_bytes(commit_time), root)


@dataclass(frozen=True, slots=True)
class SpiderCommitment:
    """The periodic signed MTT-root commitment (Section 5.3 / 6.1)."""

    elector: int
    commit_time: float
    root: bytes
    envelope: Signed

    @classmethod
    def make(cls, signer: Signer, commit_time: float,
             root: bytes) -> "SpiderCommitment":
        payload = commitment_payload(signer.asn, commit_time, root)
        return cls(elector=signer.asn, commit_time=commit_time, root=root,
                   envelope=signer.sign(payload))

    def valid(self, registry: KeyRegistry) -> bool:
        if self.envelope.signer != self.elector:
            return False
        expected = commitment_payload(self.elector, self.commit_time,
                                      self.root)
        return constant_time_eq(self.envelope.payload, expected) and \
            Verifier(registry).verify(self.envelope)


def bit_proof_payload(elector: int, recipient: int, commit_time: float,
                      proof_bytes: bytes) -> bytes:
    return digest_fields(b"SPIDER-BITPROOF", elector.to_bytes(4, "big"),
                         recipient.to_bytes(4, "big"),
                         time_bytes(commit_time), proof_bytes)


@dataclass(frozen=True, slots=True)
class SpiderBitProof:
    """A signed MTT bit proof for one (prefix, class) of one commitment."""

    elector: int
    recipient: int
    commit_time: float
    proof: MttBitProof
    envelope: Signed

    @classmethod
    def make(cls, signer: Signer, recipient: int, commit_time: float,
             proof: MttBitProof) -> "SpiderBitProof":
        payload = bit_proof_payload(signer.asn, recipient, commit_time,
                                    proof.encode())
        return cls(elector=signer.asn, recipient=recipient,
                   commit_time=commit_time, proof=proof,
                   envelope=signer.sign(payload))

    def valid(self, registry: KeyRegistry) -> bool:
        if self.envelope.signer != self.elector:
            return False
        expected = bit_proof_payload(self.elector, self.recipient,
                                     self.commit_time,
                                     self.proof.encode())
        return constant_time_eq(self.envelope.payload, expected) and \
            Verifier(registry).verify(self.envelope)
