"""The NetReview-style auditor: full-disclosure rule checking.

NetReview (NSDI'09) is the paper's evaluation baseline: like SPIDeR it is
a companion protocol that signs, acknowledges, and logs all BGP updates
in tamper-evident logs — but verification works by *handing the complete
log to the auditor*, which replays it and checks routing rules directly.
That reveals "the entire stream of BGP updates an AS has received from
its neighbors" (Section 9), which is exactly the information SPIDeR's
commitments keep private.

The auditor here checks the same promise rule that SPIDeR verifies
(exported route never worse than an available one), so the two systems
are compared on equal detection power, with :func:`disclosure_bytes`
quantifying the privacy price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

from ..bgp.prefix import Prefix
from ..bgp.route import NULL_ROUTE, Route
from ..core.classes import ClassScheme
from ..core.promise import Promise
from ..core.verdict import DetectionRecord, FaultKind
from ..spider.checkpoint import RoutingState, elector_view, replay
from ..spider.log import EntryKind, SpiderLog


@dataclass(frozen=True)
class AuditFinding:
    """One rule violation found in a disclosed log."""

    auditor: int
    audited: int
    prefix: Prefix
    kind: FaultKind
    description: str


@dataclass
class AuditReport:
    auditor: int
    audited: int
    at_time: float
    findings: List[AuditFinding] = field(default_factory=list)
    prefixes_checked: int = 0
    disclosed_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def disclosure_bytes(log: SpiderLog) -> int:
    """Bytes of the audited AS's private routing data the auditor sees.

    NetReview discloses the full message log (announcements, withdrawals
    and acks from *all* neighbors).  SPIDeR's answer to the same
    question is the commitment root plus the per-neighbor bit proofs.
    """
    return log.total_bytes(
        EntryKind.SENT_ANNOUNCE, EntryKind.RECV_ANNOUNCE,
        EntryKind.SENT_WITHDRAW, EntryKind.RECV_WITHDRAW,
        EntryKind.SENT_ACK, EntryKind.RECV_ACK)


class NetReviewAuditor:
    """Audits a disclosed log against the promise rule."""

    def __init__(self, asn: int, scheme: ClassScheme):
        self.asn = asn
        self.scheme = scheme

    def audit(self, log: SpiderLog, audited: int, at_time: float,
              promises: Mapping[int, Promise], *,
              auditor_exports: Optional[Mapping[Prefix, Route]] = None,
              participants: Optional[Iterable[int]] = None,
              check_derivation: bool = False) -> AuditReport:
        """Replay the audited AS's log and check every promise directly.

        Unlike SPIDeR's checker, the auditor sees *all* inputs from all
        neighbors in the clear — that is the whole point of the
        comparison.

        ``auditor_exports`` is the auditor's own logged view of what it
        sent the audited AS; any prefix missing from the audited AS's
        replayed imports is a swallowed message (NetReview's pairwise
        log cross-check).  With ``check_derivation`` the auditor also
        requires every exported route to be derived from some logged
        import — the full-disclosure counterpart of §6.6: a path the
        audited AS never received is fabricated.  ``participants``
        bounds the derivation check to ASes whose logs exist (routes
        first-hopping at a non-participant, e.g. an external route feed,
        cannot be cross-checked).
        """
        report = AuditReport(auditor=self.asn, audited=audited,
                             at_time=at_time,
                             disclosed_bytes=disclosure_bytes(log))
        log.verify_chain()
        state: RoutingState = replay(
            log, audited, before_index=log.index_after(at_time))

        if auditor_exports is not None:
            logged_imports = state.imports.get(self.asn, {})
            for prefix in sorted(auditor_exports):
                if prefix not in logged_imports:
                    report.findings.append(AuditFinding(
                        auditor=self.asn, audited=audited, prefix=prefix,
                        kind=FaultKind.MISSING_MESSAGE,
                        description=(
                            f"{prefix}: we announced this route to "
                            f"AS{audited} but its disclosed log never "
                            "received it")))

        if check_derivation:
            participant_set = set(participants) if participants \
                is not None else None
            import_paths = {
                (prefix, route.as_path)
                for table in state.imports.values()
                for prefix, route in table.items()
            }
            for consumer in sorted(state.exports):
                for prefix, route in sorted(state.exports[consumer]
                                            .items()):
                    underlying = elector_view(route, audited)
                    if not underlying.as_path:
                        continue
                    first_hop = underlying.as_path[0]
                    if first_hop == audited:
                        continue  # originated here: nothing to derive
                    if participant_set is not None and \
                            first_hop not in participant_set:
                        continue  # no log exists to check against
                    if (prefix, underlying.as_path) not in import_paths:
                        report.findings.append(AuditFinding(
                            auditor=self.asn, audited=audited,
                            prefix=prefix,
                            kind=FaultKind.UNEXPECTED_MESSAGE,
                            description=(
                                f"{prefix}: path {underlying.as_path} "
                                f"exported to AS{consumer} matches no "
                                "logged import (fabricated path?)")))

        for prefix in sorted(state.known_prefixes()):
            report.prefixes_checked += 1
            available = [
                table[prefix] for table in state.imports.values()
                if prefix in table
            ]
            available_classes = {self.scheme.classify(r)
                                 for r in available}
            available_classes.add(self.scheme.classify(NULL_ROUTE))
            for consumer, promise in promises.items():
                offer = state.exports.get(consumer, {}).get(prefix)
                offer_view = NULL_ROUTE if offer is None else \
                    elector_view(offer, audited)
                offer_class = self.scheme.classify(offer_view)
                better = [
                    cls for cls in available_classes
                    if promise.prefers(cls, offer_class)
                ]
                if better:
                    label = self.scheme.labels[max(better)]
                    report.findings.append(AuditFinding(
                        auditor=self.asn, audited=audited, prefix=prefix,
                        kind=FaultKind.BROKEN_PROMISE,
                        description=(
                            f"{prefix}: a {label!r} route was available "
                            f"but AS{consumer} was offered class "
                            f"{self.scheme.labels[offer_class]!r}"
                        )))
        return report


def detection_records(reports: Iterable[AuditReport]
                      ) -> List[DetectionRecord]:
    """Normalize audit findings into the cross-system detection shape."""
    records: List[DetectionRecord] = []
    for report in reports:
        for finding in report.findings:
            records.append(DetectionRecord(
                system="netreview", detector=finding.auditor,
                accused=finding.audited, kind=finding.kind,
                source="audit", description=finding.description))
    return records
