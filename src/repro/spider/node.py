"""Per-AS SPIDeR nodes and whole-network deployments.

A :class:`SpiderNode` bundles the three components of Section 6.1 —
recorder, proof generator, checker — and hooks them onto one AS's BGP
speaker.  A :class:`SpiderDeployment` instantiates nodes for every AS of
a simulated :class:`~repro.netsim.network.Network`, carries SPIDeR
messages over the same event loop as their codec bytes
(:func:`simulated_transport`, counted separately from BGP traffic, as
tcpdump separates them in §7.6), and drives verification end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple

from ..bgp.prefix import Prefix
from ..core.classes import ClassScheme, path_length_scheme
from ..core.verdict import DetectionRecord, FaultKind
from ..crypto.hashing import constant_time_eq
from ..core.promise import Promise, total_order_promise
from ..crypto.keys import Identity, KeyRegistry, make_identity
from ..netsim.network import Network
from ..obs.registry import ClockLike
from .checker import Checker, CheckReport
from .checkpoint import replay
from .codec import decode_message, encode_message
from .config import SpiderConfig
from .evidence import CommitmentEquivocationPoM, \
    commitment_equivocation_valid
from .log import LogEntry, LogSink
from .proofgen import ProofGenerator, ProofSet
from .recorder import CommitmentRecord, Recorder, Scheduler, Transport
from .state import RoutingState
from .wire import SpiderCommitment, same_millisecond, time_bytes

#: An AS's message intake, or None for an AS that runs no recorder.
Inbox = Callable[[int], Optional[Callable[[object], None]]]

#: Traffic categories (§7.6 separates BGP, SPIDeR, and proof traffic).
SPIDER_TRAFFIC = "spider"
PROOF_TRAFFIC = "spider-proofs"

#: A deployment's RSA key size; AS ``n``'s key is drawn from seed
#: ``KEY_SEED + n``.
KEY_BITS, KEY_SEED = 512, 4242

#: The evaluation's promise: 50 path-length classes, totally ordered
#: ("promised to choose the shortest route to all prefixes", §7.2).
EVALUATION_CLASSES = 50


def evaluation_scheme(k: int = EVALUATION_CLASSES) -> ClassScheme:
    return path_length_scheme(k - 1)


def simulated_transport(network: Network, sender: int, category: str,
                        inbox: Inbox) -> Transport:
    """The simulator as one more message path, shared by SPIDeR and
    NetReview deployments.

    Each message leaves ``sender`` as its codec bytes, metered under
    ``category`` (§7.6), and reaches ``inbox(receiver)`` decoded from
    those bytes one link delay later — as it would off a socket.  An
    AS whose inbox is None (a phantom feed neighbor) receives nothing.
    """
    def send(receiver: int, messages: Sequence[object]) -> None:
        deliver = inbox(receiver)
        for message in messages:
            data = encode_message(message)
            network.record_traffic(sender, category, len(data))
            if deliver is not None:
                network.sim.after(
                    network.link_delay,
                    lambda d=deliver, b=data: d(decode_message(b)))
    return send


class SpiderNode:
    """Recorder + proof generator + checker for one AS."""

    def __init__(self, identity: Identity, registry: KeyRegistry,
                 scheme: ClassScheme, promises: Dict[int, Promise],
                 config: SpiderConfig, clock: ClockLike,
                 transport: Transport, master_seed: bytes,
                 schedule: Optional[Scheduler] = None,
                 log_store: Optional[LogSink] = None,
                 recovered_entries: Optional[
                     Sequence[LogEntry]] = None):
        self.identity = identity
        self.registry = registry
        self.recorder = Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises=promises, config=config, clock=clock,
            transport=transport, master_seed=master_seed,
            schedule=schedule, log_store=log_store,
            recovered_entries=recovered_entries)
        self.proofgen = ProofGenerator(self.recorder)
        self.checker = Checker(identity.asn, registry, scheme)
        #: Commitments received from neighbors, keyed on the elector and
        #: the commit time on the wire's millisecond grid.
        self.received_commitments: Dict[Tuple[int, bytes],
                                        SpiderCommitment] = {}
        #: Faults this AS has attributed to a specific neighbor, in the
        #: normalized shape the campaign oracle consumes.
        self.detections: List[DetectionRecord] = []

    @property
    def asn(self) -> int:
        return self.identity.asn

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


class SpiderDeployment:
    """SPIDeR running on every AS of a simulated network."""

    def __init__(self, network: Network,
                 scheme: Optional[ClassScheme] = None,
                 config: SpiderConfig = SpiderConfig(),
                 promise_factory: Optional[
                     Callable[[int, int], Promise]] = None,
                 scheme_factory: Optional[
                     Callable[[int], ClassScheme]] = None,
                 participants: Optional[Iterable[int]] = None):
        """``scheme``/``promise_factory`` configure a single global class
        scheme (the paper's evaluation setup).  ``scheme_factory(asn)``
        instead gives each elector its own scheme — used with
        :class:`~repro.spider.promises.GaoRexfordPromises` for promises
        that are provably consistent with valley-free export filtering.

        ``participants`` restricts SPIDeR to a subset of the topology's
        ASes (incremental deployment, §6.7): non-participants run plain
        BGP only, and detection guarantees cover violations whose inputs
        and outputs stay within the participating subset.
        """
        self.network = network
        self.config = config
        self.scheme = scheme if scheme is not None else \
            evaluation_scheme()
        self._scheme_factory = scheme_factory
        self.registry = KeyRegistry()
        self.nodes: Dict[int, SpiderNode] = {}
        if promise_factory is None:
            promise_factory = lambda elector, neighbor: \
                total_order_promise(self._scheme_for(elector))

        if participants is None:
            participants = network.topology.ases
        self.participants = tuple(sorted(participants))
        identities = {
            asn: make_identity(asn, registry=self.registry,
                               bits=KEY_BITS, seed=KEY_SEED + asn)
            for asn in self.participants
        }
        for asn in self.participants:
            speaker = network.speaker(asn)
            promises = {
                neighbor: promise_factory(asn, neighbor)
                for neighbor in network.topology.neighbors(asn)
                if neighbor in identities
            }
            node = SpiderNode(
                identity=identities[asn],
                registry=self.registry, scheme=self._scheme_for(asn),
                promises=promises, config=config,
                clock=network.sim.clock,
                transport=simulated_transport(network, asn,
                                              SPIDER_TRAFFIC, self._inbox),
                master_seed=b"spider-node-%d" % asn,
                schedule=network.sim.after)
            self.nodes[asn] = node
            speaker.on_send(node.recorder.mirror_sent_update)

    def _scheme_for(self, asn: int) -> ClassScheme:
        if self._scheme_factory is not None:
            return self._scheme_factory(asn)
        return self.scheme

    def node(self, asn: int) -> SpiderNode:
        return self.nodes[asn]

    def _inbox(self, asn: int) -> Optional[Callable[[object], None]]:
        node = self.nodes.get(asn)
        return None if node is None else node.receive_spider

    # ------------------------------------------------------------------
    # Commitments

    def start(self, until: Optional[float] = None) -> None:
        """Arm every recorder's periodic commitment timer."""
        for node in self.nodes.values():
            self.network.sim.every(
                self.config.commit_interval,
                lambda n=node: n.recorder.make_commitment(),
                until=until)

    def commit_now(self, asn: int) -> CommitmentRecord:
        """Trigger one immediate commitment at one AS."""
        return self.nodes[asn].recorder.make_commitment()

    # ------------------------------------------------------------------
    # Verification

    def verify(self, elector: int,
               commit_time: Optional[float] = None,
               neighbors: Optional[Iterable[int]] = None,
               watch: Optional[Dict[int, List[Prefix]]] = None,
               ) -> List[VerificationOutcome]:
        """Run full verification of one elector commitment.

        Each (deployed) neighbor receives its proof set and checks it
        against its own logged view.  Proof traffic is counted under
        :data:`PROOF_TRAFFIC`.
        """
        elector_node = self.nodes[elector]
        records = elector_node.recorder.commitments
        if not records:
            raise ValueError(f"AS {elector} has made no commitments")
        if commit_time is None:
            commit_time = records[-1].commit_time
        reconstruction = elector_node.proofgen.reconstruct(commit_time)
        if neighbors is None:
            neighbors = self.network.topology.neighbors(elector)
        watch = watch or {}

        outcomes: List[VerificationOutcome] = []
        for neighbor in neighbors:
            if neighbor not in self.nodes:
                continue
            proofs = elector_node.proofgen.proofs_for(
                reconstruction, neighbor,
                watch=watch.get(neighbor, ()))
            self.network.record_traffic(elector, PROOF_TRAFFIC,
                                        proofs.encoded_size())
            outcomes.append(self.check_proofs(
                elector, neighbor, commit_time, proofs,
                watch=watch.get(neighbor, ())))
        return outcomes

    def check_proofs(self, elector: int, neighbor: int,
                     commit_time: float, proofs: ProofSet,
                     watch: Sequence[Prefix] = (),
                     ) -> VerificationOutcome:
        """One neighbor checks the proof set it was handed for the
        elector's commitment at ``commit_time`` against its own logged
        view."""
        elector_node = self.nodes[elector]
        node = self.nodes[neighbor]
        commitment = node.commitment_from(elector, commit_time)
        if commitment is None:
            # The neighbor never got the commitment — use the elector's
            # own record (a real deployment would raise an alarm;
            # integration tests verify delivery separately).
            commitment = elector_node.recorder.commitments[-1].message
            for record in elector_node.recorder.commitments:
                if same_millisecond(record.commit_time, commit_time):
                    commitment = record.message
        view = node.view_at(commit_time)
        report = node.checker.check(
            commitment, proofs,
            my_exports_to_elector=view.exports.get(elector, {}),
            my_imports_from_elector=view.imports.get(elector, {}),
            promise=elector_node.recorder.promises.get(neighbor),
            watch=watch,
            elector_scheme=elector_node.recorder.scheme)
        return VerificationOutcome(
            elector=elector, neighbor=neighbor,
            commit_time=commit_time, proofs=proofs, report=report)

    def all_clean(self, outcomes: List[VerificationOutcome]) -> bool:
        return all(o.report.ok for o in outcomes)

    # ------------------------------------------------------------------
    # Normalized detection reporting (for the fault-campaign oracle)

    def sweep_overdue_acks(self) -> List[DetectionRecord]:
        """Every participant's §6.2 T_max check, as detection records."""
        return sweep_overdue_acks(
            {asn: node.recorder for asn, node in self.nodes.items()},
            "spider", "a SPIDeR message")

    # ------------------------------------------------------------------
    # The VERIFY broadcast cross-check (Section 4.5 over SPIDeR)

    def cross_check_commitments(
            self, elector: int, commit_time: float,
    ) -> List[CommitmentEquivocationPoM]:
        """Neighbors compare the commitments they received; any two that
        differ form a transferable INVALIDCOMMIT proof.

        Returns a list of
        :class:`~repro.spider.evidence.CommitmentEquivocationPoM`
        (empty when all copies agree).
        """
        held: Dict[int, SpiderCommitment] = {}
        for neighbor in self.network.topology.neighbors(elector):
            node = self.nodes.get(neighbor)
            if node is None:
                continue
            commitment = node.commitment_from(elector, commit_time)
            if commitment is not None:
                held[neighbor] = commitment
        poms: List[CommitmentEquivocationPoM] = []
        seen_roots: Dict[bytes, SpiderCommitment] = {}
        for neighbor, commitment in sorted(held.items()):
            for other_root, other in seen_roots.items():
                if not constant_time_eq(commitment.root, other_root):
                    pom = CommitmentEquivocationPoM(first=other,
                                                    second=commitment)
                    if commitment_equivocation_valid(self.registry, pom):
                        poms.append(pom)
            seen_roots.setdefault(commitment.root, commitment)
        return poms


def sweep_overdue_acks(recorders: Mapping[int, Recorder], system: str,
                       what: str) -> List[DetectionRecord]:
    """The §6.2 T_max check over one system's recorders: one record per
    (sender, silent neighbor).

    Messages to ASes running no recorder (e.g. phantom feed neighbors,
    which can never acknowledge) are outside the detection guarantee
    and are skipped.
    """
    records: List[DetectionRecord] = []
    for asn in sorted(recorders):
        accused_seen: set[int] = set()
        for _message_hash, neighbor in recorders[asn].overdue_acks():
            if neighbor not in recorders or neighbor in accused_seen:
                continue
            accused_seen.add(neighbor)
            records.append(DetectionRecord(
                system=system, detector=asn, accused=neighbor,
                kind=FaultKind.MISSING_MESSAGE, source="ack-sweep",
                description=(f"AS{neighbor} never acknowledged {what} "
                             "(T_max exceeded)")))
    return records


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
