"""Per-AS SPIDeR nodes.

A :class:`SpiderNode` bundles the three components of Section 6.1 —
recorder, proof generator, checker — for one AS.  It is hosted by a
:class:`~repro.runtime.node_runtime.NodeRuntime`, on a socket or on each
AS of a simulated deployment
(:class:`~repro.runtime.node_runtime.SpiderDeployment`, which also
drives verification end to end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.classes import ClassScheme, path_length_scheme
from ..core.verdict import DetectionRecord, FaultKind
from ..crypto.hashing import constant_time_eq
from .checker import Checker, CheckReport
from .checkpoint import replay
from .proofgen import ProofGenerator, ProofSet
from .recorder import Recorder
from .state import RoutingState
from .wire import SpiderCommitment, time_bytes

#: Traffic categories (§7.6 separates BGP, SPIDeR, and proof traffic).
SPIDER_TRAFFIC = "spider"
PROOF_TRAFFIC = "spider-proofs"

#: The evaluation's promise: 50 path-length classes, totally ordered
#: ("promised to choose the shortest route to all prefixes", §7.2).
EVALUATION_CLASSES = 50


def evaluation_scheme(k: int = EVALUATION_CLASSES) -> ClassScheme:
    return path_length_scheme(k - 1)


class SpiderNode:
    """Recorder + proof generator + checker for one AS."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.asn = recorder.asn
        self.registry = recorder.registry
        self.proofgen = ProofGenerator(recorder)
        self.checker = Checker(self.asn, self.registry, recorder.scheme)
        #: Commitments received from neighbors, keyed on the elector and
        #: the commit time on the wire's millisecond grid.
        self.received_commitments: Dict[Tuple[int, bytes],
                                        SpiderCommitment] = {}
        #: Faults this AS has attributed to a specific neighbor, in the
        #: normalized shape the campaign oracle consumes.
        self.detections: List[DetectionRecord] = []

    def receive_spider(self, message: object) -> None:
        if isinstance(message, SpiderCommitment):
            if not self.recorder.commitment_valid(message):
                return
            key = (message.elector, time_bytes(message.commit_time))
            if key in self.received_commitments and \
                    not constant_time_eq(
                        self.received_commitments[key].root,
                        message.root):
                self.recorder.alarm(
                    "equivocation",
                    f"equivocating commitment from AS{message.elector}")
                self.detections.append(DetectionRecord(
                    system="spider", detector=self.asn,
                    accused=message.elector,
                    kind=FaultKind.EQUIVOCATION, source="commitment",
                    description=(
                        f"two roots for commitment at "
                        f"t={message.commit_time}")))
            self.received_commitments[key] = message
            return
        self.recorder.receive(message)

    def commitment_from(self, elector: int,
                        commit_time: float) -> Optional[SpiderCommitment]:
        return self.received_commitments.get(
            (elector, time_bytes(commit_time)))

    def view_at(self, t: float) -> RoutingState:
        """This AS's logged view at ``t``: every entry stamped by then."""
        log = self.recorder.log
        return replay(log, self.asn, before_index=log.index_after(t))

    def committed_view(self, commit_time: float) -> RoutingState:
        """The state this AS committed to at ``commit_time``: its log
        cut at that COMMITMENT entry, as the proof generator cuts it."""
        entry = self.proofgen.commitment(commit_time)
        return replay(self.recorder.log, self.asn, before_index=entry.index)

    def close(self) -> None:
        """Release held resources (the recorder's warm labeling pool)."""
        self.recorder.close()


@dataclass
class VerificationOutcome:
    """One neighbor's check of one elector commitment."""

    elector: int
    neighbor: int
    commit_time: float
    proofs: ProofSet
    report: CheckReport


def detection_records(outcomes: Iterable[VerificationOutcome]
                      ) -> List[DetectionRecord]:
    """Normalize promise-verification verdicts into detection records."""
    records: List[DetectionRecord] = []
    for outcome in outcomes:
        for verdict in outcome.report.verdicts:
            records.append(DetectionRecord(
                system="spider", detector=outcome.neighbor,
                accused=outcome.elector, kind=verdict.kind,
                source="promise-verify",
                description=verdict.description))
    return records
