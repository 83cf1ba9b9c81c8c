"""NetReview deployed on a simulated network.

NetReview shares SPIDeR's messaging substrate — "we reused some code
from NetReview, specifically the component for mirroring BGP routing
state ... and the component for maintaining a tamper-evident message log
with signatures and acknowledgments" (§7.1) — so this deployment reuses
:class:`~repro.spider.recorder.Recorder` with the MTT commitment replaced
by a no-op epoch marker.  The CPU comparison of §7.5 (NetReview ≈ SPIDeR
minus MTT generation, about 5× lower) falls out of exactly this sharing.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Optional

from ..bgp.prefix import Prefix
from ..core.classes import ClassScheme
from ..core.promise import Promise
from ..netsim.network import Network
from ..runtime.node_runtime import Deployment
from ..spider.checkpoint import replay
from ..spider.config import SpiderConfig
from ..spider.log import EntryKind, LogEntry
from ..spider.node import SPIDER_TRAFFIC
from ..spider.recorder import CommitmentRecord, Recorder
from ..spider.wire import SpiderCommitment
from .auditor import AuditReport, NetReviewAuditor

#: Traffic category for NetReview's own messages (same substrate).
NETREVIEW_TRAFFIC = SPIDER_TRAFFIC

#: Traffic category for disclosed logs during audits.
AUDIT_TRAFFIC = "netreview-audit"


class NetReviewRecorder(Recorder):
    """The shared recorder without MTT commitments.

    Epoch boundaries are still logged (auditors audit per epoch), but no
    tree is built and nothing is hashed beyond the log chain — the cost
    difference against SPIDeR is precisely the missing 'mtt' CPU
    section.  With no tree to keep current there are no dirty-prefix
    marks either: nothing would ever clear them.  Its host's series
    carry ``system="netreview"``, so an AS that runs both systems in one
    world counts each apart.
    """

    system_labels = MappingProxyType({"system": "netreview"})

    def _mark_dirty(self, prefixes: Iterable[Prefix]) -> None:
        pass

    def _commitment_record(self, entry: LogEntry) -> CommitmentRecord:
        """An epoch marker: nothing to sign, nothing to count."""
        return CommitmentRecord(commit_time=entry.timestamp, root=b"",
                                message=None, census_total=0)

    def commitment_valid(self, message: SpiderCommitment) -> bool:
        """NetReview keeps no commitments: one that arrives (from an
        equivocation installed here) is dropped unread."""
        return False

    def make_commitment(self) -> CommitmentRecord:
        commit_time = self.log.stamp(self.clock.now)
        self._fold(self.log.append(commit_time, EntryKind.COMMITMENT,
                                   {"seed": b"", "root": b""}))
        self._maybe_checkpoint(commit_time)
        return self.commitments[-1]


class NetReviewDeployment(Deployment):
    """NetReview on every AS of a simulated network."""

    system, unacknowledged = "netreview", "a logged message"
    category = NETREVIEW_TRAFFIC
    key_seed, seed_format = 24242, b"netreview-%d"
    recorder_class = NetReviewRecorder

    def __init__(self, network: Network,
                 scheme: Optional[ClassScheme] = None,
                 config: SpiderConfig = SpiderConfig(),
                 promise_factory:
                 Optional[Callable[[int, int], Promise]] = None,
                 scheme_factory:
                 Optional[Callable[[int], ClassScheme]] = None):
        super().__init__(network, scheme, config, promise_factory,
                         scheme_factory)
        self.recorders: Dict[int, Recorder] = {
            asn: runtime.recorder for asn, runtime in self.runtimes.items()}

    def recorder(self, asn: int) -> Recorder:
        return self.recorders[asn]

    # ------------------------------------------------------------------

    def audit(self, audited: int, auditor: int,
              at_time: Optional[float] = None, *,
              cross_check: bool = False,
              check_derivation: bool = False) -> AuditReport:
        """One neighbor audits another by fetching its complete log.

        ``cross_check`` turns on the pairwise input cross-check: the
        auditor compares its own logged exports toward the audited AS
        against the audited AS's replayed imports — a swallowed message
        cannot hide from both logs at once.  ``check_derivation`` makes
        the auditor reject exported paths that match no logged import.
        """
        recorder = self.recorders[audited]
        if at_time is None:
            at_time = self.network.sim.now
        auditor_exports = None
        if cross_check and auditor in self.recorders:
            own = self.recorders[auditor].log
            own_view = replay(own, auditor,
                              before_index=own.index_after(at_time))
            auditor_exports = own_view.exports.get(audited, {})
        report = NetReviewAuditor(auditor, recorder.scheme).audit(
            recorder.log, audited, at_time, recorder.promises,
            auditor_exports=auditor_exports,
            participants=self.recorders,
            check_derivation=check_derivation)
        self.network.record_traffic(audited, AUDIT_TRAFFIC,
                                    report.disclosed_bytes)
        return report

    def audit_all_neighbors(self, audited: int,
                            at_time: Optional[float] = None, *,
                            cross_check: bool = False,
                            check_derivation: bool = False
                            ) -> List[AuditReport]:
        return [self.audit(audited, neighbor, at_time,
                           cross_check=cross_check,
                           check_derivation=check_derivation)
                for neighbor in self.network.topology.neighbors(audited)
                if neighbor in self.recorders]
