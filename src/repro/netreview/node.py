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

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..bgp.prefix import Prefix
from ..core.classes import ClassScheme
from ..core.promise import Promise, total_order_promise
from ..core.verdict import DetectionRecord
from ..crypto.keys import KeyRegistry, make_identity
from ..netsim.network import Network
from ..spider.checkpoint import replay
from ..spider.config import SpiderConfig
from ..spider.log import EntryKind, LogEntry
from ..spider.node import SPIDER_TRAFFIC, evaluation_scheme, \
    sweep_overdue_acks
from ..spider.recorder import CommitmentRecord, Recorder, Transport
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
    marks either: nothing would ever clear them.
    """

    def _mark_dirty(self, prefixes: Iterable[Prefix]) -> None:
        pass

    def _commitment_record(self, entry: LogEntry) -> CommitmentRecord:
        """An epoch marker: nothing to sign, nothing to count."""
        return CommitmentRecord(commit_time=entry.timestamp, root=b"",
                                message=None, census_total=0)

    def make_commitment(self) -> CommitmentRecord:
        commit_time = self.clock.now
        self._fold(self.log.append(commit_time, EntryKind.COMMITMENT,
                                   {"seed": b"", "root": b""}))
        self._maybe_checkpoint(commit_time)
        return self.commitments[-1]


class NetReviewDeployment:
    """NetReview on every AS of a simulated network."""

    def __init__(self, network: Network,
                 scheme: Optional[ClassScheme] = None,
                 config: SpiderConfig = SpiderConfig(),
                 key_bits: int = 512, key_seed: int = 24242,
                 promise_factory:
                 Optional[Callable[[int, int], Promise]] = None,
                 scheme_factory:
                 Optional[Callable[[int], ClassScheme]] = None):
        self.network = network
        self.config = config
        self.scheme = scheme if scheme is not None else \
            evaluation_scheme()
        self._scheme_factory = scheme_factory
        self.registry = KeyRegistry()
        self.recorders: Dict[int, NetReviewRecorder] = {}
        self.promises: Dict[int, Dict[int, Promise]] = {}
        if promise_factory is None:
            promise_factory = lambda elector, neighbor: \
                total_order_promise(self._scheme_for(elector))

        identities = {
            asn: make_identity(asn, registry=self.registry,
                               bits=key_bits, seed=key_seed + asn)
            for asn in network.topology.ases
        }
        for asn in network.topology.ases:
            promises = {
                neighbor: promise_factory(asn, neighbor)
                for neighbor in network.topology.neighbors(asn)
            }
            self.promises[asn] = promises
            recorder = NetReviewRecorder(
                identity=identities[asn], registry=self.registry,
                scheme=self._scheme_for(asn), promises=promises,
                config=config,
                clock=network.sim.clock,
                transport=self._transport_for(asn),
                master_seed=b"netreview-%d" % asn,
                schedule=network.sim.after)
            self.recorders[asn] = recorder
            network.speaker(asn).on_send(recorder.mirror_sent_update)

    def _scheme_for(self, asn: int) -> ClassScheme:
        if self._scheme_factory is not None:
            return self._scheme_factory(asn)
        return self.scheme

    def recorder(self, asn: int) -> NetReviewRecorder:
        return self.recorders[asn]

    def _transport_for(self, sender: int) -> Transport:
        def send(receiver: int, messages: Sequence[object]) -> None:
            for message in messages:
                self.network.record_traffic(sender, NETREVIEW_TRAFFIC,
                                            message.wire_size())
            target = self.recorders.get(receiver)
            if target is None:
                return
            for message in messages:
                self.network.sim.after(self.network.link_delay,
                                       partial(target.receive, message))
        return send

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
            own_view = replay(self.recorders[auditor].log, auditor,
                              at_time)
            auditor_exports = own_view.exports.get(audited, {})
        report = NetReviewAuditor(auditor, recorder.scheme).audit(
            recorder.log, audited, at_time, self.promises[audited],
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

    def sweep_overdue_acks(self) -> List[DetectionRecord]:
        """The §6.2 T_max check on the shared substrate, NetReview side."""
        return sweep_overdue_acks(self.recorders, "netreview",
                                  "a logged message")
