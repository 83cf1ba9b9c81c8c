"""Tests for §6.3 evidence of import/export and its refutation."""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.spider.codec import decode_message, encode_message
from repro.spider.evidence import CommitmentEquivocationPoM, \
    ExportEvidence, ImportEvidence, commitment_equivocation_valid, \
    export_evidence_valid, import_evidence_valid, refute_export, \
    refute_import
from repro.spider.wire import SpiderAck, SpiderAnnounce, \
    SpiderCommitment, SpiderWithdraw

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")
ALICE, BOB = 6, 5


@pytest.fixture(scope="module")
def world():
    registry = KeyRegistry()
    alice = make_identity(ALICE, registry=registry, bits=512, seed=71)
    bob = make_identity(BOB, registry=registry, bits=512, seed=72)
    return registry, Signer(alice), Signer(bob)


def route(path=(ALICE, 91), prefix=P):
    return Route(prefix=prefix, as_path=tuple(path), neighbor=path[0])


def make_import_story(sign_alice, sign_bob, announce_t=10.0,
                      withdraw_t=20.0, prefix=P):
    """Alice announces to Bob, Bob acks; Alice later withdraws."""
    announce = SpiderAnnounce.make(sign_alice, receiver=BOB,
                                   timestamp=announce_t,
                                   route=route(prefix=prefix),
                                   underlying=None)
    ack = SpiderAck.make(sign_bob, sender=ALICE,
                         timestamp=announce_t + 0.1,
                         message_hash=announce.message_hash())
    withdraw = SpiderWithdraw.make(sign_alice, receiver=BOB,
                                   timestamp=withdraw_t, prefix=prefix)
    withdraw_ack = SpiderAck.make(sign_bob, sender=ALICE,
                                  timestamp=withdraw_t + 0.1,
                                  message_hash=withdraw.message_hash())
    return announce, ack, withdraw, withdraw_ack


class TestImportEvidence:
    def test_valid_between_announce_and_withdraw(self, world):
        registry, sign_alice, sign_bob = world
        announce, ack, _, _ = make_import_story(sign_alice, sign_bob)
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert import_evidence_valid(registry, evidence, commit_time=15.0)

    def test_invalid_before_announce(self, world):
        registry, sign_alice, sign_bob = world
        announce, ack, _, _ = make_import_story(sign_alice, sign_bob)
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert not import_evidence_valid(registry, evidence,
                                         commit_time=5.0)

    def test_mismatched_ack_rejected(self, world):
        registry, sign_alice, sign_bob = world
        announce, _, _, _ = make_import_story(sign_alice, sign_bob)
        other, other_ack, _, _ = make_import_story(sign_alice, sign_bob,
                                                   prefix=Q)
        evidence = ImportEvidence(announce=announce, ack=other_ack)
        assert not import_evidence_valid(registry, evidence,
                                         commit_time=15.0)

    def test_refuted_by_later_withdrawal(self, world):
        registry, sign_alice, sign_bob = world
        announce, ack, withdraw, withdraw_ack = make_import_story(
            sign_alice, sign_bob)
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert refute_import(registry, evidence, withdraw, withdraw_ack,
                             commit_time=30.0)

    def test_not_refuted_before_withdrawal(self, world):
        registry, sign_alice, sign_bob = world
        announce, ack, withdraw, withdraw_ack = make_import_story(
            sign_alice, sign_bob)
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert not refute_import(registry, evidence, withdraw,
                                 withdraw_ack, commit_time=15.0)

    def test_refutation_needs_matching_prefix(self, world):
        registry, sign_alice, sign_bob = world
        announce, ack, _, _ = make_import_story(sign_alice, sign_bob)
        _, _, withdraw_q, withdraw_q_ack = make_import_story(
            sign_alice, sign_bob, prefix=Q)
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert not refute_import(registry, evidence, withdraw_q,
                                 withdraw_q_ack, commit_time=30.0)

    def test_refutation_needs_electors_ack(self, world):
        """A fabricated withdrawal without the elector's ack cannot
        refute: the ack pins the effective time to the elector's clock."""
        registry, sign_alice, sign_bob = world
        announce, ack, withdraw, _ = make_import_story(sign_alice,
                                                       sign_bob)
        forged_ack = SpiderAck.make(sign_alice, sender=ALICE,
                                    timestamp=20.1,
                                    message_hash=withdraw.message_hash())
        evidence = ImportEvidence(announce=announce, ack=ack)
        assert not refute_import(registry, evidence, withdraw,
                                 forged_ack, commit_time=30.0)


class TestExportEvidence:
    def test_valid_after_announce(self, world):
        registry, sign_alice, sign_bob = world
        announce = SpiderAnnounce.make(sign_bob, receiver=ALICE,
                                       timestamp=10.0,
                                       route=route(path=(BOB, 91)),
                                       underlying=None)
        evidence = ExportEvidence(announce=announce)
        assert export_evidence_valid(registry, evidence,
                                     commit_time=15.0)
        assert not export_evidence_valid(registry, evidence,
                                         commit_time=5.0)

    def test_reannounce_not_acceptable(self, world):
        """§6.6: RE-ANNOUNCEs cannot stand in for original evidence."""
        registry, sign_alice, sign_bob = world
        reannounce = SpiderAnnounce.make(sign_bob, receiver=ALICE,
                                         timestamp=10.0,
                                         route=route(path=(BOB, 91)),
                                         underlying=None,
                                         reannounce=True)
        evidence = ExportEvidence(announce=reannounce)
        assert not export_evidence_valid(registry, evidence,
                                         commit_time=15.0)

    def test_refuted_by_bobs_withdrawal_with_alices_ack(self, world):
        registry, sign_alice, sign_bob = world
        announce = SpiderAnnounce.make(sign_bob, receiver=ALICE,
                                       timestamp=10.0,
                                       route=route(path=(BOB, 91)),
                                       underlying=None)
        withdraw = SpiderWithdraw.make(sign_bob, receiver=ALICE,
                                       timestamp=20.0, prefix=P)
        alice_ack = SpiderAck.make(sign_alice, sender=BOB,
                                   timestamp=20.1,
                                   message_hash=withdraw.message_hash())
        evidence = ExportEvidence(announce=announce)
        assert refute_export(registry, evidence, withdraw, alice_ack,
                             commit_time=30.0)
        assert not refute_export(registry, evidence, withdraw, alice_ack,
                                 commit_time=15.0)

    def test_refutation_requires_consumers_ack(self, world):
        """Bob cannot back-date a withdrawal: without Alice's matching
        ACK the refutation fails."""
        registry, sign_alice, sign_bob = world
        announce = SpiderAnnounce.make(sign_bob, receiver=ALICE,
                                       timestamp=10.0,
                                       route=route(path=(BOB, 91)),
                                       underlying=None)
        withdraw = SpiderWithdraw.make(sign_bob, receiver=ALICE,
                                       timestamp=20.0, prefix=P)
        self_ack = SpiderAck.make(sign_bob, sender=BOB, timestamp=20.1,
                                  message_hash=withdraw.message_hash())
        evidence = ExportEvidence(announce=announce)
        assert not refute_export(registry, evidence, withdraw, self_ack,
                                 commit_time=30.0)


class TestCommitmentEquivocation:
    def test_same_millisecond_is_the_same_commitment_time(self, world):
        """One commitment as its elector holds it (between
        milliseconds) and another for that time as it arrived (on the
        grid) are two commitments for one time."""
        registry, sign_alice, _sign_bob = world
        held = SpiderCommitment.make(sign_alice, 10.0004, bytes(20))
        arrived = decode_message(encode_message(
            SpiderCommitment.make(sign_alice, 10.0004, b"\x01" * 20)))
        assert arrived.commit_time == 10.0
        assert commitment_equivocation_valid(
            registry, CommitmentEquivocationPoM(held, arrived))

    def test_different_milliseconds_are_not_equivocation(self, world):
        registry, sign_alice, _sign_bob = world
        first = SpiderCommitment.make(sign_alice, 10.0004, bytes(20))
        second = SpiderCommitment.make(sign_alice, 10.0006, b"\x01" * 20)
        assert not commitment_equivocation_valid(
            registry, CommitmentEquivocationPoM(first, second))
