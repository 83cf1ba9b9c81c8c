"""The differential detection/privacy oracle for adversarial campaigns.

Every campaign (:mod:`repro.faults.campaign`) runs one injected fault
through BOTH SPIDeR and the NetReview baseline on the same netsim trace,
plus a clean control world.  This module holds the assertions:

* **detection** — the fault is detected by exactly the expected ASes,
  each accusing the faulty AS with an expected
  :class:`~repro.core.verdict.FaultKind`; nobody accuses anyone else;
* **cleanliness** — the control world raises no detection and no
  recorder alarm (false-positive freedom);
* **privacy** — SPIDeR's proofs reveal only prefixes the verifying
  neighbor already exchanges with the elector (no third-party routes),
  while NetReview necessarily discloses the full log; the oracle
  quantifies the delta instead of hand-waving it (the Seagull-style
  privacy probe from PAPERS.md).

Expectations are *computed from the faulty world's own converged state*
(who actually received the bad route, who supplied the dropped one), so
randomized positions and schedules need no hand-written golden tables —
the oracle stays hypothesis-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from ..core.verdict import DetectionRecord, FaultKind
from ..netreview.auditor import AuditReport
from ..runtime.node_runtime import SpiderDeployment
from ..spider.node import VerificationOutcome


@dataclass(frozen=True)
class SystemExpectation:
    """What one system must/may detect for one campaign.

    ``must_detect`` maps each required detector to the fault kinds it is
    allowed to report (at least one must appear); ``may_detect`` lists
    additional ASes whose detections are tolerated (e.g. every NetReview
    auditor sees every finding in the disclosed log).  When ``detects``
    is False the system is expected to see *nothing* — the differential
    half of the oracle (e.g. NetReview cannot catch equivocation because
    its commitments are never broadcast).
    """

    detects: bool
    must_detect: Mapping[int, FrozenSet[FaultKind]] = \
        field(default_factory=dict)
    may_detect: FrozenSet[int] = frozenset()

    @property
    def allowed_kinds(self) -> FrozenSet[FaultKind]:
        kinds: Set[FaultKind] = set()
        for allowed in self.must_detect.values():
            kinds.update(allowed)
        return frozenset(kinds)


def check_detections(system: str, records: Iterable[DetectionRecord],
                     expectation: SystemExpectation,
                     accused: int) -> List[str]:
    """Problems with one system's detections against its expectation."""
    problems: List[str] = []
    records = list(records)
    if not expectation.detects:
        for record in records:
            problems.append(
                f"{system}: unexpected detection by AS{record.detector} "
                f"({record.kind.value}) — this system should see "
                "nothing for this attack class")
        return problems

    by_detector: Dict[int, Set[FaultKind]] = {}
    for record in records:
        if record.accused != accused:
            problems.append(
                f"{system}: AS{record.detector} accused "
                f"AS{record.accused}, expected AS{accused}")
        by_detector.setdefault(record.detector, set()).add(record.kind)

    for detector in sorted(expectation.must_detect):
        allowed = expectation.must_detect[detector]
        got = by_detector.get(detector)
        if not got:
            problems.append(
                f"{system}: AS{detector} was expected to detect the "
                "fault and did not")
        elif not got & set(allowed):
            problems.append(
                f"{system}: AS{detector} detected "
                f"{sorted(k.value for k in got)}, expected one of "
                f"{sorted(k.value for k in allowed)}")

    tolerated = set(expectation.must_detect) | set(expectation.may_detect)
    allowed_kinds = expectation.allowed_kinds
    for detector in sorted(by_detector):
        if detector not in tolerated:
            problems.append(
                f"{system}: AS{detector} raised a detection it should "
                f"not have ({sorted(k.value for k in by_detector[detector])})")
        elif detector not in expectation.must_detect and \
                not by_detector[detector] <= allowed_kinds:
            problems.append(
                f"{system}: AS{detector} reported unexpected kinds "
                f"{sorted(k.value for k in by_detector[detector] - allowed_kinds)}")
    return problems


def check_clean(spider_records: Iterable[DetectionRecord],
                netreview_records: Iterable[DetectionRecord],
                alarms: Mapping[int, List[str]]) -> List[str]:
    """Problems with a control world that should be silent."""
    problems: List[str] = []
    for record in spider_records:
        problems.append(
            f"control/spider: false positive — AS{record.detector} "
            f"accused AS{record.accused} of {record.kind.value}: "
            f"{record.description}")
    for record in netreview_records:
        problems.append(
            f"control/netreview: false positive — AS{record.detector} "
            f"accused AS{record.accused} of {record.kind.value}: "
            f"{record.description}")
    for asn in sorted(alarms):
        for text in alarms[asn]:
            problems.append(
                f"control: AS{asn} raised a recorder alarm: {text}")
    return problems


# ----------------------------------------------------------------------
# Privacy


@dataclass
class PrivacyReport:
    """The privacy half of the differential, quantified.

    SPIDeR's disclosure to a verifying neighbor is the set of prefixes
    named in its bit proofs — all of which the neighbor already
    exchanges with the elector.  NetReview's disclosure to an auditor is
    the whole log; ``netreview_third_party_prefixes`` counts prefixes an
    auditor learned about without ever having exchanged them with the
    audited AS (the leak SPIDeR exists to close).
    """

    spider_proof_prefixes: int = 0
    spider_third_party_prefixes: int = 0
    netreview_disclosed_bytes: int = 0
    netreview_third_party_prefixes: int = 0
    checked: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "spider_proof_prefixes": self.spider_proof_prefixes,
            "spider_third_party_prefixes":
                self.spider_third_party_prefixes,
            "netreview_disclosed_bytes": self.netreview_disclosed_bytes,
            "netreview_third_party_prefixes":
                self.netreview_third_party_prefixes,
            "checked": self.checked,
        }


def check_privacy(deployment: SpiderDeployment, elector: int,
                  outcomes: Iterable[VerificationOutcome],
                  audit_reports: Iterable[AuditReport],
                  ) -> Tuple[PrivacyReport, List[str]]:
    """SPIDeR must reveal no third-party prefix; NetReview leaks by
    design.  Returns the quantified report plus any violations."""
    report = PrivacyReport(checked=True)
    problems: List[str] = []

    elector_node = deployment.nodes[elector]
    elector_prefixes = set(elector_node.committed_view(
        elector_node.recorder.commitments[-1].commit_time)
        .known_prefixes())

    for outcome in outcomes:
        neighbor_node = deployment.nodes.get(outcome.neighbor)
        if neighbor_node is None:
            continue
        view = neighbor_node.view_at(outcome.commit_time)
        exchanged = set(view.exports.get(elector, {}))
        exchanged.update(view.imports.get(elector, {}))
        revealed = set(outcome.proofs.producer_proofs)
        revealed.update(outcome.proofs.consumer_proofs)
        report.spider_proof_prefixes += len(revealed)
        third_party = revealed - exchanged
        report.spider_third_party_prefixes += len(third_party)
        for prefix in sorted(third_party, key=str):
            problems.append(
                f"privacy/spider: proof set for AS{outcome.neighbor} "
                f"reveals {prefix}, which it never exchanged with "
                f"AS{elector}")

    for audit in audit_reports:
        report.netreview_disclosed_bytes += audit.disclosed_bytes
        auditor_node = deployment.nodes.get(audit.auditor)
        if auditor_node is None:
            continue
        view = auditor_node.view_at(
            elector_node.recorder.commitments[-1].commit_time)
        exchanged = set(view.exports.get(elector, {}))
        exchanged.update(view.imports.get(elector, {}))
        report.netreview_third_party_prefixes += \
            len(elector_prefixes - exchanged)

    if report.spider_third_party_prefixes > \
            report.netreview_third_party_prefixes and \
            report.netreview_disclosed_bytes > 0:
        problems.append(
            "privacy: SPIDeR revealed more third-party prefixes than "
            "the full-disclosure baseline — promise bound broken")
    return report, problems
