"""Fault-injection primitives.

Each injector makes one component misbehave in a specific way while the
rest of the system stays correct, so tests can verify that the paper's
detection guarantees hold against exactly that deviation:

* :class:`FilteringRecorder` — hides a neighbor's announcements from the
  committed state (the over-aggressive filter of §7.4, as it manifests at
  the recorder: the AS's routers dropped the route, so the mirrored state
  the MTT is built from is missing it);
* :class:`EquivocatingRecorder` — sends different commitments to chosen
  neighbors (the INVALIDCOMMIT case of §4.5);
* :func:`install_import_filter` — makes the *BGP speaker* drop matching
  routes on import, so its decisions really do ignore them;
* :func:`install_export_filter` — suppresses matching routes on export
  (used to build the *honest* variant of the selective-export scenario);
* :func:`tamper_bit_proof` — re-signs a bit proof with the bit flipped
  (§7.4's "tampered bit proof");
* :class:`AckWithholdingRecorder` — silently ignores a neighbor's
  companion-protocol messages (no log entry, no ACK), the §6.2 fault the
  T_max timeout exists to catch;
* :func:`install_export_leak` — disables the valley-free discipline so
  the speaker leaks provider/peer routes upstream (a classic route
  leak);
* :func:`install_export_mutator` — rewrites routes after export policy,
  e.g. :func:`shorten_as_path` for a path-shortening interception;
* :func:`tamper_log_entry` — edits a log entry in place (an adversary
  doctoring the log it will later disclose to a NetReview auditor).

The ``*NetReviewRecorder`` combo classes graft the same misbehaviors
onto the NetReview baseline recorder so one campaign can drive both
systems with an identical fault.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Set

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..bgp.speaker import Speaker
from ..crypto.signatures import Signer
from ..mtt.proofs import MttBitProof
from ..netreview.node import NetReviewRecorder
from ..spider.log import LogEntry, SpiderLog
from ..spider.proofgen import ProofSet
from ..spider.recorder import CommitmentRecord, Recorder
from ..spider.wire import SpiderAnnounce, SpiderBitProof, \
    SpiderCommitment, SpiderWithdraw


class FilteringRecorder(Recorder):
    """A recorder that pretends selected announcements never arrived.

    It still acknowledges them (a missing ACK would raise an immediate
    alarm), but neither logs them nor counts them in commitments — the
    stealthy version of losing a route.
    """

    def __init__(self, *args: Any, drop_from: int,
                 drop_prefixes: Optional[Set[Prefix]] = None,
                 active_from: float = 0.0,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.drop_from = drop_from
        self.drop_prefixes = drop_prefixes
        self.active_from = active_from
        self.dropped: List[SpiderAnnounce] = []

    def _should_drop(self, message: SpiderAnnounce) -> bool:
        if message.sender != self.drop_from:
            return False
        if self.clock.now < self.active_from:
            return False
        return self.drop_prefixes is None or \
            message.prefix in self.drop_prefixes

    def _receive_announce(self, message: SpiderAnnounce) -> None:
        if isinstance(message, SpiderAnnounce) and \
                self._should_drop(message):
            if message.valid(self.registry):
                self.dropped.append(message)
                self._send_ack(message.sender, message.message_hash())
            return
        super()._receive_announce(message)


class EquivocatingRecorder(Recorder):
    """A recorder that commits differently toward selected neighbors."""

    def __init__(self, *args: Any, lie_to: Set[int],
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.lie_to = set(lie_to)

    def make_commitment(self) -> CommitmentRecord:
        record = super().make_commitment()
        # Overwrite what the chosen neighbors received with a second,
        # inconsistent commitment (same time, different root).
        fake_root = bytes(b ^ 0xFF for b in record.root)
        fake = SpiderCommitment.make(self.signer, record.commit_time,
                                     fake_root)
        for neighbor in self.lie_to:
            self.transport(neighbor, [fake])
        return record


class AckWithholdingRecorder(Recorder):
    """A recorder that stonewalls selected neighbors (§6.2 timeout case).

    Announces and withdrawals from ``withhold_from`` are neither logged
    nor acknowledged once the clock passes ``active_from`` — the sender's
    :meth:`~repro.spider.recorder.Recorder.overdue_acks` trips after
    T_max, which is the paper's required reaction to a silent peer.
    """

    def __init__(self, *args: Any, withhold_from: Set[int],
                 active_from: float = 0.0, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.withhold_from = set(withhold_from)
        self.active_from = active_from
        self.withheld: List[object] = []

    def _withholds(self, sender: int) -> bool:
        return sender in self.withhold_from and \
            self.clock.now >= self.active_from

    def _receive_announce(self, message: SpiderAnnounce) -> None:
        if self._withholds(message.sender):
            self.withheld.append(message)
            return
        super()._receive_announce(message)

    def _receive_withdraw(self, message: SpiderWithdraw) -> None:
        if self._withholds(message.sender):
            self.withheld.append(message)
            return
        super()._receive_withdraw(message)


class FilteringNetReviewRecorder(FilteringRecorder, NetReviewRecorder):
    """The same stealth drop, grafted onto the NetReview baseline."""


class AckWithholdingNetReviewRecorder(AckWithholdingRecorder,
                                      NetReviewRecorder):
    """The same stonewalling, grafted onto the NetReview baseline."""


class EquivocatingNetReviewRecorder(NetReviewRecorder):
    """Would-be equivocator on the baseline: NetReview commitments carry
    no broadcast message (``make_commitment`` only marks the epoch), so
    there is nothing to equivocate about — the class exists to make the
    differential explicit: the attack surface is absent, and so is the
    detection."""


def install_import_filter(speaker: Speaker,
                          predicate: Callable[[Route, int], bool]) -> None:
    """Make the speaker's import policy drop routes matching
    ``predicate(route, neighbor)`` — the over-aggressive filter."""
    policy = speaker.import_policy
    original = policy.apply

    def filtering_apply(route: Route, neighbor: int
                        ) -> Optional[Route]:
        if predicate(route, neighbor):
            return None
        return original(route, neighbor)

    policy.apply = filtering_apply  # type: ignore[method-assign]


def install_export_filter(speaker: Speaker,
                          predicate: Callable[[Route, int], bool]) -> None:
    """Suppress exports matching ``predicate(route, neighbor)``."""
    policy = speaker.export_policy
    original = policy.apply

    def filtering_apply(route: Route, neighbor: int
                        ) -> Optional[Route]:
        if predicate(route, neighbor):
            return None
        return original(route, neighbor)

    policy.apply = filtering_apply  # type: ignore[method-assign]


def install_export_leak(speaker: Speaker) -> None:
    """Turn off the speaker's valley-free export discipline.

    Provider- and peer-learned routes then propagate upstream — the
    classic route leak.  The recorder keeps mirroring faithfully, so the
    leak is visible to anyone allowed to inspect the committed state.
    """
    speaker.export_policy.gao_rexford = False


def install_export_mutator(speaker: Speaker,
                           mutate: Callable[[Route, int],
                                            Optional[Route]]) -> None:
    """Rewrite every route the export policy admits.

    ``mutate(route, neighbor)`` sees the route as it would have gone on
    the wire (local ASN already prepended) and returns the doctored
    replacement (or None to suppress).  The recorder mirrors the
    *doctored* route — the adversary is internally consistent, which is
    exactly what makes path-shortening invisible to plain promise
    verification and leaves §6.6 extended verification as the catch.
    """
    policy = speaker.export_policy
    original = policy.apply

    def mutating_apply(route: Route, neighbor: int) -> Optional[Route]:
        result = original(route, neighbor)
        if result is None:
            return None
        return mutate(result, neighbor)

    policy.apply = mutating_apply  # type: ignore[method-assign]


def shorten_as_path(route: Route) -> Route:
    """Collapse an exported AS path to (exporter, origin).

    The interception move: the path still ends at the true origin (so
    the route attracts traffic and passes loop checks) but the middle —
    including the AS the exporter really learned it from — is gone.
    """
    if len(route.as_path) <= 2:
        return route
    return dataclasses.replace(
        route, as_path=(route.as_path[0], route.as_path[-1]))


def tamper_log_entry(log: SpiderLog, index: int) -> LogEntry:
    """Doctor one entry of a log that will later be disclosed whole.

    Perturbs the entry's recorded size (one of the fields the §6.5 hash
    chain binds), modeling an AS that edits its log before handing it to
    a NetReview auditor; ``verify_chain`` must catch it.
    """
    entries = log._entries
    entry = entries[index]
    tampered = dataclasses.replace(entry,
                                   size_bytes=entry.size_bytes ^ 1)
    entries[index] = tampered
    return tampered


def tamper_bit_proof(signer: Signer, message: SpiderBitProof,
                     ) -> SpiderBitProof:
    """The elector re-signs a proof with the bit flipped (§7.4 fault 3).

    The signature is fresh and valid — only the Merkle arithmetic can
    (and does) expose the lie.
    """
    proof = message.proof
    flipped = MttBitProof(prefix=proof.prefix,
                          class_index=proof.class_index,
                          bit=1 - proof.bit, blinding=proof.blinding,
                          steps=proof.steps)
    return SpiderBitProof.make(signer, message.recipient,
                               message.commit_time, flipped)


def tamper_proof_set(signer: Signer, proofs: ProofSet, prefix: Prefix,
                     class_index: Optional[int] = None) -> ProofSet:
    """Return a copy of ``proofs`` with matching proofs tampered."""
    result = ProofSet(elector=proofs.elector, recipient=proofs.recipient,
                      commit_time=proofs.commit_time,
                      generation_seconds=proofs.generation_seconds)
    for p, message in proofs.producer_proofs.items():
        if p == prefix and (class_index is None or
                            message.proof.class_index == class_index):
            message = tamper_bit_proof(signer, message)
        result.producer_proofs[p] = message
    for p, messages in proofs.consumer_proofs.items():
        out: List[SpiderBitProof] = []
        for message in messages:
            if p == prefix and (class_index is None or
                                message.proof.class_index == class_index):
                message = tamper_bit_proof(signer, message)
            out.append(message)
        result.consumer_proofs[p] = out
    return result
