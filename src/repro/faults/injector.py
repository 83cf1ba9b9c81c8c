"""Fault-injection primitives.

Each injector makes one component misbehave in a specific way while the
rest of the system stays correct, so tests can verify that the paper's
detection guarantees hold against exactly that deviation:

* :func:`install_inbound_drop` — makes a recorder lose a neighbor's
  messages.  Acknowledged, it is the over-aggressive filter of §7.4 as
  it manifests at the recorder (the AS's routers dropped the route, so
  the mirrored state the MTT is built from is missing it); silent, it
  is the §6.2 stonewalling the T_max timeout exists to catch;
* :func:`install_equivocation` — sends a second commitment root to
  chosen neighbors (the INVALIDCOMMIT case of §4.5);
* :func:`install_import_filter` — makes the *BGP speaker* drop matching
  routes on import, so its decisions really do ignore them;
* :func:`install_export_filter` — suppresses matching routes on export
  (used to build the *honest* variant of the selective-export scenario);
* :func:`tamper_bit_proof` — re-signs a bit proof with the bit flipped
  (§7.4's "tampered bit proof");
* :func:`install_export_leak` — disables the valley-free discipline so
  the speaker leaks provider/peer routes upstream (a classic route
  leak);
* :func:`install_export_mutator` — rewrites routes after export policy,
  e.g. :func:`shorten_as_path` for a path-shortening interception;
* :func:`tamper_log_entry` — swaps a log entry's payload in place (an
  adversary doctoring the log it will later disclose to a NetReview
  auditor).

Every ``install_*`` takes a *built* object — a speaker, or a recorder of
either system (:class:`~repro.spider.recorder.Recorder` and the
NetReview baseline's subclass alike) — and rebinds methods on that one
instance, so faults compose and one campaign drives both systems with
an identical fault.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Set

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..bgp.speaker import Speaker
from ..crypto.signatures import Signer
from ..mtt.proofs import MttBitProof
from ..spider.log import EntryKind, LogEntry, SpiderLog
from ..spider.proofgen import ProofSet
from ..spider.recorder import CommitmentRecord, Recorder
from ..spider.wire import SpiderAnnounce, SpiderBitProof, \
    SpiderCommitment, SpiderWithdraw


def install_inbound_drop(recorder: Recorder, sender: int, *,
                         prefixes: Optional[Set[Prefix]] = None,
                         active_from: float = 0.0,
                         acknowledge: bool = True) -> List[object]:
    """Make a built recorder lose ``sender``'s announcements and
    withdrawals (for ``prefixes`` only, when given) once its clock
    reaches ``active_from``: no log entry, no committed state.

    With ``acknowledge`` the (validly signed) message is still ACKed —
    the stealthy loss of §7.4's over-aggressive filter, where a missing
    ACK would raise an immediate alarm.  Without it the sender is
    stonewalled, and its delivery service gives up with evidence once
    T_max has passed (§6.2).  Returns the live list of dropped
    messages.
    """
    dropped: List[object] = []
    original = recorder._receive_update

    def receive_update(message: Any) -> None:
        if message.sender != sender or \
                recorder.clock.now < active_from or \
                (prefixes is not None and
                 message.prefix not in prefixes):
            original(message)
            return
        dropped.append(message)
        if acknowledge and message.valid(recorder.registry):
            recorder._send_ack(sender, message.message_hash())

    recorder._receive_update = receive_update  # type: ignore[method-assign]
    return dropped


def install_equivocation(recorder: Recorder, lie_to: Set[int]) -> None:
    """Follow every commitment of a built recorder with a second,
    inconsistent one (same time, different root) toward ``lie_to`` —
    the INVALIDCOMMIT case of §4.5."""
    original = recorder.make_commitment

    def make_commitment() -> CommitmentRecord:
        record = original()
        fake_root = bytes(b ^ 0xFF for b in record.root)
        fake = SpiderCommitment.make(recorder.signer, record.commit_time,
                                     fake_root)
        for neighbor in sorted(lie_to):
            recorder.transport(neighbor, [fake])
        return record

    recorder.make_commitment = make_commitment  # type: ignore[method-assign]


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

    Swaps the entry's payload for a different valid payload of the same
    kind — another root in a commitment, a checkpoint with one route
    dropped, a message carrying another route, prefix or hash — and
    leaves ``size_bytes``, ``chain`` and every other entry alone,
    modeling an AS that edits its log before handing it to a NetReview
    auditor; ``verify_chain`` must catch it.
    """
    entries = log._entries
    entry = entries[index]
    tampered = dataclasses.replace(
        entry, payload=_doctored_payload(entry.kind, entry.payload))
    entries[index] = tampered
    return tampered


def _doctored_payload(kind: EntryKind, payload: Any) -> Any:
    if kind is EntryKind.COMMITMENT:
        root = bytes(b ^ 0xFF for b in payload["root"]) or b"\xff"
        return dict(payload, root=root)
    if kind is EntryKind.CHECKPOINT:
        state = payload.copy()
        for table in list(state.imports.values()) + \
                list(state.exports.values()):
            if table:
                del table[min(table)]
                return state
        raise ValueError("checkpoint holds no route to drop")
    if isinstance(payload, SpiderAnnounce):
        return dataclasses.replace(payload, route=dataclasses.replace(
            payload.route, med=payload.route.med ^ 1))
    if isinstance(payload, SpiderWithdraw):
        return dataclasses.replace(payload, prefix=Prefix(
            address=0, length=0 if payload.prefix.length else 1))
    return dataclasses.replace(payload, message_hash=bytes(
        b ^ 0xFF for b in payload.message_hash))


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
