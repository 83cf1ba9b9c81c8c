"""Evidence of import and export with refutation (Section 6.3).

With periodic commitments, a signed announcement alone no longer proves a
route was in effect at commitment time t — it may have been withdrawn.
Evidence is therefore iterative:

* **Evidence of import** — Alice proves she was exporting route r to Bob
  at t with her ANNOUNCE (timestamped t' < t) and Bob's matching ACK; Bob
  refutes with Alice's own WITHDRAW at t'' ∈ (t', t).
* **Evidence of export** — Alice proves Bob was exporting r to her at t
  with Bob's ANNOUNCE (t' < t); Bob refutes with his WITHDRAW at
  t'' ∈ (t', t) *plus Alice's matching ACK* (so he cannot fabricate a
  back-dated withdrawal).

All timestamps are the elector's own (Section 6.3): outgoing messages
take effect when sent, incoming when acknowledged.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..crypto.hashing import constant_time_eq
from ..crypto.keys import KeyRegistry
from .wire import SpiderAck, SpiderAnnounce, SpiderCommitment, \
    SpiderWithdraw, same_millisecond


@dataclass(frozen=True, slots=True)
class CommitmentEquivocationPoM:
    """INVALIDCOMMIT at the SPIDeR level: two different signed
    commitments for the same commitment time (Section 4.5, carried over
    to periodic commitments)."""

    first: SpiderCommitment
    second: SpiderCommitment

    @property
    def accused(self) -> int:
        return self.first.elector


def commitment_equivocation_valid(registry: KeyRegistry,
                                  pom: CommitmentEquivocationPoM) -> bool:
    """Would this INVALIDCOMMIT evidence convince a third party?"""
    return (
        pom.first.elector == pom.second.elector
        and same_millisecond(pom.first.commit_time,
                             pom.second.commit_time)
        and not constant_time_eq(pom.first.root, pom.second.root)
        and pom.first.valid(registry)
        and pom.second.valid(registry)
    )


@dataclass(frozen=True, slots=True)
class MissingAckEvidence:
    """The sender's record that a signed message was never acknowledged.

    Section 6.2: every SPIDeR message must be acknowledged; a missing
    ACK past T_max "raises an alarm that must be handled out of band".
    The delivery layer (:mod:`repro.runtime.delivery`) retries with
    backoff first; when it gives up, this record is what the operator
    escalates — the signed message proves what was sent and to whom,
    and the retry history shows the sender met its delivery obligation.

    Unlike a PoM this is not independently transferable (a third party
    cannot verify an absence), but the signed message pins the accused
    receiver and the content it refuses to acknowledge.
    """

    #: The unacknowledged :class:`~repro.spider.wire.SpiderAnnounce` or
    #: :class:`~repro.spider.wire.SpiderWithdraw`.
    message: object
    first_sent: float
    #: Total transmissions, the original send included.
    attempts: int
    gave_up_at: float

    @property
    def accused(self) -> int:
        return self.message.receiver

    @property
    def sender(self) -> int:
        return self.message.sender


def ack_overdue(sent: float, now: float, ack_timeout: float) -> bool:
    """§6.2's one missing-ACK rule: T_max has passed since ``sent``, on
    the millisecond grid of every signed time (:func:`~repro.spider.
    wire.time_bytes`), so a timer armed for the deadline finds it due."""
    return round((now - sent) * 1000) >= round(ack_timeout * 1000)


def missing_ack_evidence_valid(registry: KeyRegistry,
                               evidence: MissingAckEvidence,
                               ack_timeout: float) -> bool:
    """Is this a well-formed alarm?  The message must carry the sender's
    valid signature, at least one retry must have happened, and the
    sender must have waited out T_max before giving up."""
    message = evidence.message
    if not isinstance(message, (SpiderAnnounce, SpiderWithdraw)):
        return False
    if not message.valid(registry):
        return False
    if evidence.attempts < 2:
        return False
    return ack_overdue(evidence.first_sent, evidence.gave_up_at,
                       ack_timeout)


@dataclass(frozen=True, slots=True)
class ImportEvidence:
    """Producer-held proof that the elector had accepted its route."""

    announce: SpiderAnnounce   # producer → elector
    ack: SpiderAck             # elector's receipt

    @property
    def producer(self) -> int:
        return self.announce.sender

    @property
    def elector(self) -> int:
        return self.announce.receiver


@dataclass(frozen=True, slots=True)
class ExportEvidence:
    """Consumer-held proof that the elector had announced a route to it."""

    announce: SpiderAnnounce   # elector → consumer

    @property
    def elector(self) -> int:
        return self.announce.sender

    @property
    def consumer(self) -> int:
        return self.announce.receiver


def import_evidence_valid(registry: KeyRegistry,
                          evidence: ImportEvidence,
                          commit_time: float) -> bool:
    """Does the evidence establish the import was live at commit_time?"""
    announce, ack = evidence.announce, evidence.ack
    if not announce.valid(registry) or not ack.valid(registry):
        return False
    if ack.acker != announce.receiver or \
            not constant_time_eq(ack.message_hash,
                                 announce.message_hash()):
        return False
    # Effective when acknowledged, using the elector's (acker's) clock.
    return ack.timestamp < commit_time


def refute_import(registry: KeyRegistry, evidence: ImportEvidence,
                  withdraw: SpiderWithdraw, withdraw_ack: SpiderAck,
                  commit_time: float) -> bool:
    """Bob refutes Alice's import evidence with her own later WITHDRAW.

    The withdrawal must be Alice's, for the same prefix, acknowledged by
    Bob between the announcement and the commitment.
    """
    if not withdraw.valid(registry) or not withdraw_ack.valid(registry):
        return False
    if withdraw.sender != evidence.producer or \
            withdraw.receiver != evidence.elector:
        return False
    if withdraw.prefix != evidence.announce.prefix:
        return False
    if withdraw_ack.acker != evidence.elector or \
            not constant_time_eq(withdraw_ack.message_hash,
                                 withdraw.message_hash()):
        return False
    return evidence.ack.timestamp < withdraw_ack.timestamp < commit_time


def export_evidence_valid(registry: KeyRegistry,
                          evidence: ExportEvidence,
                          commit_time: float) -> bool:
    """Does the evidence establish the export was live at commit_time?"""
    announce = evidence.announce
    if not announce.valid(registry):
        return False
    if announce.reannounce:
        return False  # RE-ANNOUNCEs never substitute for originals (§6.6)
    # Effective when sent, using the elector's (sender's) clock.
    return announce.timestamp < commit_time


def refute_export(registry: KeyRegistry, evidence: ExportEvidence,
                  withdraw: SpiderWithdraw, consumer_ack: SpiderAck,
                  commit_time: float) -> bool:
    """Bob refutes Alice's export evidence with his own later WITHDRAW
    and Alice's matching ACK for it."""
    if not withdraw.valid(registry) or not consumer_ack.valid(registry):
        return False
    if withdraw.sender != evidence.elector or \
            withdraw.receiver != evidence.consumer:
        return False
    if withdraw.prefix != evidence.announce.prefix:
        return False
    if consumer_ack.acker != evidence.consumer or \
            not constant_time_eq(consumer_ack.message_hash,
                                 withdraw.message_hash()):
        return False
    return evidence.announce.timestamp < withdraw.timestamp < commit_time
