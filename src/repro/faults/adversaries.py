"""The attack-class library for adversarial campaigns.

Each :class:`Adversary` packages one attack class — route leak,
interception by path shortening, wrongful export, ack withholding,
equivocating commitments, proof tampering, stealth route drop, and
collusion — as a composable strategy parameterized by topology position,
timing, and intensity.  The campaign engine
(:mod:`repro.faults.campaign`) asks each adversary to

1. ``sample`` a concrete :class:`AttackSpec` from a converged *probe*
   network (so positions are always realizable, never vacuous),
2. ``install`` the fault into a faulty world (and the honest counterpart
   into a clean control world),
3. ``drive`` the workload and ``detect`` through BOTH SPIDeR and the
   NetReview baseline, and
4. state ``expectations`` — computed from the faulty world's own
   converged state, so randomized schedules need no golden tables.

The differential oracle (:mod:`repro.faults.oracle`) then checks that
every fault is detected by the right AS with the right
:class:`~repro.core.verdict.FaultKind`, that the control world stays
silent, and that SPIDeR reveals no third-party prefixes where NetReview
discloses the whole log.

The attack classes map onto the taxonomy of the follow-up verification
literature (IVeri's policy-violation classes, Seagull's privacy probes;
see PAPERS.md and DESIGN.md §3g).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, \
    Sequence, Set, Tuple

from ..bgp.policy import Relation
from ..bgp.prefix import Prefix
from ..bgp.route import NULL_ROUTE, Route
from ..core.classes import ClassScheme, RouteOrNull
from ..core.collusion import violation_detectable
from ..core.promise import Promise, trivial_promise
from ..core.verdict import DetectionRecord, FaultKind
from ..netreview import auditor as netreview_auditor
from ..netreview.auditor import AuditReport
from ..netreview.node import NetReviewDeployment
from ..netsim.network import Network, TraceEvent
from ..netsim.topology import FOCUS_AS, Topology
from ..spider import node as spider_node
from ..spider.checkpoint import elector_view
from ..spider.extended import run_extended_verification
from ..spider.log import TamperError
from ..spider.node import SpiderDeployment, VerificationOutcome
from ..spider.promises import GaoRexfordPromises
from ..spider.recorder import Recorder
from .injector import install_equivocation, install_export_filter, \
    install_export_leak, install_export_mutator, install_import_filter, \
    install_inbound_drop, shorten_as_path, tamper_log_entry, \
    tamper_proof_set
from .oracle import SystemExpectation

#: The phantom AS behind the route feed attached at the injection AS.
FEED_ASN = 65000

#: Origin AS whose routes are 'not for export' (§7.4 fault 2).
SECRET_ORIGIN = 6666

GOOD_PREFIX = Prefix.parse("203.0.113.0/24")
SECRET_PREFIX = Prefix.parse("198.51.100.0/24")
FILLER_PREFIX = Prefix.parse("192.0.2.0/24")

#: Additional workload prefix originated at the second stub (AS 10).
TEN_PREFIX = Prefix.parse("203.0.114.0/24")

#: Prefix originated mid-run by the ack-withholding victim.
ACK_PREFIX = Prefix.parse("198.18.0.0/24")

#: Every prefix the standard workload puts in flight.
WORKLOAD_PREFIXES: Tuple[Prefix, ...] = \
    (FILLER_PREFIX, GOOD_PREFIX, TEN_PREFIX)


def standard_workload(network: Network) -> None:
    """The baseline Figure 5 workload: one feed trace, two stub origins."""
    network.schedule_trace(FEED_ASN, [
        TraceEvent(1.0, FILLER_PREFIX, (FEED_ASN, 4000, 4001)),
    ])
    network.originate(9, GOOD_PREFIX)
    network.originate(10, TEN_PREFIX)
    network.settle()


def selective_export_scheme_for_spider() -> ClassScheme:
    """A path-based never-export scheme usable across the whole AS graph:
    routes originated by :data:`SECRET_ORIGIN` must not be exported."""
    def classify(route: RouteOrNull) -> int:
        if route is NULL_ROUTE:
            return 1
        return 0 if route.traverses(SECRET_ORIGIN) else 2
    return ClassScheme(
        labels=("not-for-export", "no-route", "exportable"),
        classify_fn=classify)


# ----------------------------------------------------------------------
# Specs, worlds, results


@dataclass(frozen=True)
class AttackSpec:
    """One sampled, fully concrete attack instance.

    ``position`` is the faulty AS; ``accomplices`` are additional
    colluding ASes; ``victims`` are the ASes the attack is aimed at
    (semantics vary by class); ``prefix`` is the targeted prefix (empty
    when the class targets no specific prefix); ``activate_time`` is the
    simulated instant the fault switches on; ``intensity`` is a
    class-specific magnitude (e.g. how many neighbors are lied to).
    """

    attack: str
    position: int
    accomplices: Tuple[int, ...] = ()
    victims: Tuple[int, ...] = ()
    prefix: str = ""
    activate_time: float = 0.0
    intensity: int = 1

    @property
    def prefix_value(self) -> Prefix:
        return Prefix.parse(self.prefix)

    def to_json(self) -> Dict[str, object]:
        return {
            "attack": self.attack,
            "position": self.position,
            "accomplices": list(self.accomplices),
            "victims": list(self.victims),
            "prefix": self.prefix,
            "activate_time": self.activate_time,
            "intensity": self.intensity,
        }


@dataclass
class World:
    """One network with both systems deployed side by side."""

    faulty: bool
    network: Network
    spider: SpiderDeployment
    netreview: NetReviewDeployment

    def recorders(self, asn: int) -> Tuple[Recorder, Recorder]:
        """``asn``'s recorder on each system — a recorder-level fault is
        installed on both."""
        return (self.spider.nodes[asn].recorder,
                self.netreview.recorders[asn])


@dataclass(frozen=True)
class SchemeConfig:
    """How a deployment's class schemes and promises are built."""

    scheme: Optional[ClassScheme] = None
    scheme_factory: Optional[Callable[[int], ClassScheme]] = None
    promise_factory: Optional[Callable[[int, int], Promise]] = None


@dataclass
class DetectResult:
    """Everything one world's detection pass produced."""

    spider: List[DetectionRecord] = field(default_factory=list)
    netreview: List[DetectionRecord] = field(default_factory=list)
    #: Detections raised by accomplices — ignored by the oracle (a
    #: colluder's own reports prove nothing) but kept for the record.
    discarded: List[DetectionRecord] = field(default_factory=list)
    outcomes: List[VerificationOutcome] = field(default_factory=list)
    audit_reports: List[AuditReport] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# A leak-sensitive promise scheme

#: Relations an AS may freely export to (downstream under valley-free).
_DOWNSTREAM = (Relation.CUSTOMER, Relation.SIBLING)


class LeakPromises:
    """Per-elector schemes that make route leaks promise violations.

    Three classes: 0 = route via a provider/peer (or an unknown first
    hop such as the external feed), 1 = no route, 2 = route via a
    customer/sibling (or self-originated).  Promising providers and
    peers that class 1 beats class 0 — "rather no route than one of my
    provider/peer routes" — is exactly the valley-free export
    discipline, so the honest Gao-Rexford policy always conforms, and
    disabling it (:func:`~repro.faults.injector.install_export_leak`)
    breaks the promise at every upstream neighbor that receives the
    leaked route.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._schemes: Dict[int, ClassScheme] = {}

    def scheme_for(self, elector: int) -> ClassScheme:
        if elector not in self._schemes:
            relations = self.topology.relations_of(elector)

            def classify(route: RouteOrNull,
                         _relations: Dict[int, Relation] = relations,
                         _elector: int = elector) -> int:
                if route is NULL_ROUTE:
                    return 1
                first_hop = route.as_path[0] if route.as_path else None
                if first_hop == _elector:
                    return 2
                relation = _relations.get(first_hop) \
                    if first_hop is not None else None
                if relation in _DOWNSTREAM:
                    return 2
                return 0
            self._schemes[elector] = ClassScheme(
                labels=("upstream-or-unknown", "no-route", "downstream"),
                classify_fn=classify)
        return self._schemes[elector]

    def promise_for(self, elector: int, consumer: int) -> Promise:
        scheme = self.scheme_for(elector)
        relation = self.topology.relations_of(elector).get(consumer)
        if relation in (Relation.PROVIDER, Relation.PEER):
            return Promise(scheme=scheme, order=frozenset({(0, 1)}))
        return trivial_promise(scheme)


# ----------------------------------------------------------------------
# Shared detection helpers


def participant_neighbors(world: World, asn: int) -> Tuple[int, ...]:
    """Neighbors of ``asn`` that run a SPIDeR node (excludes the feed)."""
    return tuple(n for n in world.network.topology.neighbors(asn)
                 if n in world.spider.nodes)


def audit_position(world: World, audited: int, *,
                   cross_check: bool = True,
                   check_derivation: bool = True,
                   exclude: Sequence[int] = (),
                   ) -> Tuple[List[AuditReport], List[DetectionRecord]]:
    """Every neighbor audits ``audited``; tampered logs convict too.

    A log whose hash chain fails :meth:`verify_chain` raises
    :class:`~repro.spider.log.TamperError` inside the audit — that *is*
    a detection (the §6.5 tamper evidence), normalized here into an
    INVALID_SIGNATURE record per auditor.
    """
    reports: List[AuditReport] = []
    records: List[DetectionRecord] = []
    for auditor in participant_neighbors(world, audited):
        if auditor in exclude:
            continue
        try:
            report = world.netreview.audit(
                audited, auditor, cross_check=cross_check,
                check_derivation=check_derivation)
        except TamperError as error:
            records.append(DetectionRecord(
                system="netreview", detector=auditor, accused=audited,
                kind=FaultKind.INVALID_SIGNATURE, source="audit",
                description=f"disclosed log fails chain check: {error}"))
            continue
        reports.append(report)
    records.extend(netreview_auditor.detection_records(reports))
    return reports, records


def verify_and_audit(world: World, spec: AttackSpec, *,
                     cross_check: bool = True,
                     check_derivation: bool = False) -> DetectResult:
    """The default detection pass: commit, verify, audit, sweep."""
    result = DetectResult()
    world.spider.commit_now(spec.position)
    world.netreview.recorders[spec.position].make_commitment()
    world.network.settle()
    result.outcomes = world.spider.verify(spec.position)
    result.spider.extend(spider_node.detection_records(result.outcomes))
    result.spider.extend(world.spider.sweep_overdue_acks())
    reports, records = audit_position(
        world, spec.position, cross_check=cross_check,
        check_derivation=check_derivation)
    result.audit_reports = reports
    result.netreview.extend(records)
    result.netreview.extend(world.netreview.sweep_overdue_acks())
    return result


# ----------------------------------------------------------------------
# The adversary interface


class Adversary:
    """One attack class, composable into randomized campaigns."""

    name = "abstract"
    #: Whether the privacy half of the oracle applies (it needs a full
    #: verify+audit pass on the control world).
    privacy_check = True

    def scheme_config(self, topology: Topology) -> SchemeConfig:
        """Default: Gao-Rexford-consistent per-elector promises."""
        grp = GaoRexfordPromises(topology)
        return SchemeConfig(scheme_factory=grp.scheme_for,
                            promise_factory=grp.promise_for)

    def probe_workload(self, network: Network) -> None:
        """Workload used on the probe network for position sampling."""
        standard_workload(network)

    def workload_events(self, spec: AttackSpec) -> List[Dict[str, object]]:
        """Declarative schedule, recorded into every campaign artifact."""
        return [
            {"t": 1.0, "kind": "trace", "prefix": str(FILLER_PREFIX),
             "path": [FEED_ASN, 4000, 4001]},
            {"t": 0.0, "kind": "originate", "asn": 9,
             "prefix": str(GOOD_PREFIX)},
            {"t": 0.0, "kind": "originate", "asn": 10,
             "prefix": str(TEN_PREFIX)},
        ]

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        """Pick a realizable attack position from the converged probe.

        ``rng`` is the campaign's seeded generator — the only source of
        randomness, so identical seeds yield identical specs."""
        raise NotImplementedError

    def install(self, world: World, spec: AttackSpec) -> None:
        """Hook the fault into a freshly built faulty world (speakers
        and both systems' recorders), or its honest counterpart into
        the control world."""

    def drive(self, world: World, spec: AttackSpec) -> None:
        self.probe_workload(world.network)

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        return verify_and_audit(world, spec)

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        """What each system must see, derived from the faulty world."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# 1. Stealth route drop (the §7.4 over-aggressive filter, randomized)


class RouteDropAdversary(Adversary):
    """The faulty AS silently drops one neighbor's route — speaker and
    recorder in cahoots (the route never reaches the committed state),
    but the supplier holds a signed ACK and detects the missing/false
    bit.  NetReview's pairwise cross-check sees the swallowed message."""

    name = "route-drop"

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates: List[Tuple[int, int, Prefix]] = []
        for position in sorted(probe.speakers):
            speaker = probe.speaker(position)
            for supplier in sorted(speaker.neighbors):
                if supplier not in probe.speakers:
                    continue
                for prefix in WORKLOAD_PREFIXES:
                    if speaker.received_from(supplier, prefix) is not None:
                        candidates.append((position, supplier, prefix))
        if not candidates:
            return None
        position, supplier, prefix = candidates[
            rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position,
                          victims=(supplier,), prefix=str(prefix))

    def install(self, world: World, spec: AttackSpec) -> None:
        if not world.faulty:
            return
        supplier = spec.victims[0]
        prefix = spec.prefix_value
        for recorder in world.recorders(spec.position):
            install_inbound_drop(recorder, supplier, prefixes={prefix})
        install_import_filter(
            world.network.speaker(spec.position),
            lambda route, neighbor: neighbor == supplier and
            route.prefix == prefix)

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        supplier = spec.victims[0]
        prefix = spec.prefix_value
        commit_time = faulty_world.spider.nodes[spec.position] \
            .recorder.commitments[-1].commit_time
        # The supplier detects iff its own log still shows it exporting
        # the dropped prefix to the faulty AS at the commitment time.
        supplier_view = faulty_world.spider.nodes[supplier] \
            .view_at(commit_time)
        still_exporting = prefix in \
            supplier_view.exports.get(spec.position, {})
        spider_must: Dict[int, FrozenSet[FaultKind]] = {}
        netreview_must: Dict[int, FrozenSet[FaultKind]] = {}
        if still_exporting:
            spider_must[supplier] = frozenset(
                {FaultKind.MISSING_PROOF, FaultKind.FALSE_BIT})
            netreview_must[supplier] = frozenset(
                {FaultKind.MISSING_MESSAGE})
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=True,
                                  must_detect=netreview_must))


# ----------------------------------------------------------------------
# 2. Wrongful export (§7.4 fault 2, randomized position)


class WrongfulExportAdversary(Adversary):
    """A not-for-export route is exported.  SPIDeR: each receiving
    neighbor's promise ranks 'no route' above 'not-for-export', and the
    1-proof for the no-route class fails.  NetReview: every auditor sees
    the violation for every consumer — the full-disclosure differential.

    The faulty world runs everybody unfixed (the secret route floods);
    only the sampled position is verified/audited, so the fault under
    test is *its* export.  The control world installs the honest export
    filter everywhere."""

    name = "wrongful-export"

    def scheme_config(self, topology: Topology) -> SchemeConfig:
        scheme = selective_export_scheme_for_spider()
        return SchemeConfig(
            scheme=scheme,
            promise_factory=lambda elector, neighbor: Promise(
                scheme=scheme, order=frozenset({(0, 1)})))

    def probe_workload(self, network: Network) -> None:
        standard_workload(network)
        network.schedule_trace(FEED_ASN, [
            TraceEvent(1.2, SECRET_PREFIX,
                       (FEED_ASN, 4000, SECRET_ORIGIN)),
        ])
        network.settle()

    def workload_events(self, spec: AttackSpec) -> List[Dict[str, object]]:
        events = super().workload_events(spec)
        events.append({"t": 1.2, "kind": "trace",
                       "prefix": str(SECRET_PREFIX),
                       "path": [FEED_ASN, 4000, SECRET_ORIGIN]})
        return events

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates: List[Tuple[int, Tuple[int, ...]]] = []
        for position in sorted(probe.speakers):
            receivers = tuple(
                n for n in sorted(probe.speaker(position).neighbors)
                if n in probe.speakers and
                probe.speaker(n).received_from(position, SECRET_PREFIX)
                is not None)
            if receivers:
                candidates.append((position, receivers))
        if not candidates:
            return None
        position, receivers = candidates[
            rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position,
                          victims=receivers, prefix=str(SECRET_PREFIX))

    def install(self, world: World, spec: AttackSpec) -> None:
        if world.faulty:
            return
        for asn in world.network.speakers:
            install_export_filter(
                world.network.speaker(asn),
                lambda route, neighbor: route.traverses(SECRET_ORIGIN))

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        # Recompute the victims from the faulty world itself: every
        # neighbor that actually holds the secret route from the
        # position must detect.
        position = spec.position
        receivers = tuple(
            n for n in participant_neighbors(faulty_world, position)
            if faulty_world.network.speaker(n).received_from(
                position, SECRET_PREFIX) is not None)
        spider_must = {n: frozenset({FaultKind.BROKEN_PROMISE})
                       for n in receivers}
        netreview_must = {
            n: frozenset({FaultKind.BROKEN_PROMISE})
            for n in participant_neighbors(faulty_world, position)}
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=True,
                                  must_detect=netreview_must))


# ----------------------------------------------------------------------
# 3. Route leak


class RouteLeakAdversary(Adversary):
    """The faulty AS disables valley-free export and re-exports
    provider/peer routes upstream.  Under :class:`LeakPromises` every
    upstream neighbor that receives a leaked route holds a promise that
    'no route' beats it — a BROKEN_PROMISE on both systems."""

    name = "route-leak"

    def scheme_config(self, topology: Topology) -> SchemeConfig:
        promises = LeakPromises(topology)
        return SchemeConfig(scheme_factory=promises.scheme_for,
                            promise_factory=promises.promise_for)

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        topology = probe.topology
        candidates: List[int] = []
        for position in sorted(probe.speakers):
            relations = topology.relations_of(position)
            upstream = [n for n, rel in sorted(relations.items())
                        if rel in (Relation.PROVIDER, Relation.PEER)]
            if not upstream:
                continue
            # A leak only materializes when the AS holds a route it is
            # currently *not* giving some upstream neighbor.
            speaker = probe.speaker(position)
            for prefix in WORKLOAD_PREFIXES:
                best = speaker.best(prefix)
                if best is None:
                    continue
                for neighbor in upstream:
                    if neighbor in best.as_path:
                        continue
                    if speaker.advertised_to(neighbor, prefix) is None:
                        candidates.append(position)
                        break
                else:
                    continue
                break
        if not candidates:
            return None
        position = candidates[rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position)

    def install(self, world: World, spec: AttackSpec) -> None:
        if world.faulty:
            install_export_leak(world.network.speaker(spec.position))

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        position = spec.position
        topology = faulty_world.network.topology
        relations = topology.relations_of(position)
        scheme_config = self.scheme_config(topology)
        assert scheme_config.scheme_factory is not None
        scheme = scheme_config.scheme_factory(position)
        receivers: Set[int] = set()
        for neighbor in participant_neighbors(faulty_world, position):
            if relations[neighbor] not in (Relation.PROVIDER,
                                           Relation.PEER):
                continue
            speaker = faulty_world.network.speaker(neighbor)
            for prefix in WORKLOAD_PREFIXES:
                route = speaker.received_from(position, prefix)
                if route is None:
                    continue
                if scheme.classify(elector_view(route, position)) == 0:
                    receivers.add(neighbor)
                    break
        spider_must = {n: frozenset({FaultKind.BROKEN_PROMISE})
                       for n in sorted(receivers)}
        netreview_must: Dict[int, FrozenSet[FaultKind]] = {}
        if receivers:
            netreview_must = {
                n: frozenset({FaultKind.BROKEN_PROMISE})
                for n in participant_neighbors(faulty_world, position)}
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=True,
                                  must_detect=netreview_must))


# ----------------------------------------------------------------------
# 4. Interception by path shortening


class InterceptionAdversary(Adversary):
    """The faulty AS re-exports a route with the middle of the AS path
    cut out — it still ends at the true origin, so it attracts traffic
    and passes loop checks, and the recorder mirrors the *doctored*
    route, so plain promise verification stays clean (the shortened
    first hop classifies to ⊥, which nothing is promised against).
    Only §6.6 extended verification (SPIDeR) and the derivation check
    on the disclosed log (NetReview) catch it — both must."""

    name = "interception"

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates: List[Tuple[int, Prefix]] = []
        for position in sorted(probe.speakers):
            speaker = probe.speaker(position)
            for prefix, origin in ((GOOD_PREFIX, 9), (TEN_PREFIX, 10)):
                best = speaker.best(prefix)
                if best is None or len(best.as_path) < 2:
                    continue
                if position == origin or origin in speaker.neighbors:
                    continue  # shortening would change nothing
                receivers = [
                    n for n in sorted(speaker.neighbors)
                    if n in probe.speakers and
                    speaker.advertised_to(n, prefix) is not None]
                if receivers:
                    candidates.append((position, prefix))
        if not candidates:
            return None
        position, prefix = candidates[
            rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position,
                          prefix=str(prefix))

    def install(self, world: World, spec: AttackSpec) -> None:
        if not world.faulty:
            return
        prefix = spec.prefix_value
        install_export_mutator(
            world.network.speaker(spec.position),
            lambda route, neighbor: shorten_as_path(route)
            if route.prefix == prefix else route)

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        result = DetectResult()
        world.spider.commit_now(spec.position)
        world.netreview.recorders[spec.position].make_commitment()
        world.network.settle()
        result.outcomes = world.spider.verify(spec.position)
        promise_records = spider_node.detection_records(result.outcomes)
        if world.faulty and promise_records:
            # The attack is internally consistent by construction: plain
            # promise verification alarming means the model is off.
            result.problems.append(
                "interception: plain promise verification fired; the "
                "attack should be invisible to it")
        result.spider.extend(promise_records)
        extended = run_extended_verification(world.spider, spec.position)
        for verdict in extended.verdicts:
            result.spider.append(DetectionRecord(
                system="spider", detector=verdict.detector,
                accused=verdict.accused, kind=verdict.kind,
                source="extended", description=verdict.description))
        if extended.refusing_producers:
            result.problems.append(
                "interception: honest producers refused to re-announce: "
                f"{extended.refusing_producers}")
        result.spider.extend(world.spider.sweep_overdue_acks())
        reports, records = audit_position(world, spec.position,
                                          check_derivation=True)
        result.audit_reports = reports
        result.netreview.extend(records)
        result.netreview.extend(world.netreview.sweep_overdue_acks())
        return result

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        position = spec.position
        prefix = spec.prefix_value
        speaker = faulty_world.network.speaker(position)
        receivers = tuple(
            n for n in participant_neighbors(faulty_world, position)
            if speaker.advertised_to(n, prefix) is not None)
        spider_must = {n: frozenset({FaultKind.BROKEN_PROMISE})
                       for n in receivers}
        netreview_must: Dict[int, FrozenSet[FaultKind]] = {}
        if receivers:
            netreview_must = {
                n: frozenset({FaultKind.UNEXPECTED_MESSAGE})
                for n in participant_neighbors(faulty_world, position)}
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=True,
                                  must_detect=netreview_must))


# ----------------------------------------------------------------------
# 5. Ack withholding


class AckWithholdingAdversary(Adversary):
    """The faulty AS stonewalls one neighbor: messages are neither
    logged nor acknowledged.  The victim's T_max timeout (§6.2) trips on
    both systems — the shared-substrate guarantee."""

    name = "ack-withhold"
    privacy_check = False

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        pairs: List[Tuple[int, int]] = []
        for position in sorted(probe.speakers):
            for victim in sorted(probe.speaker(position).neighbors):
                if victim in probe.speakers:
                    pairs.append((position, victim))
        if not pairs:
            return None
        position, victim = pairs[rng.randint(0, len(pairs) - 1)]
        activate = round(6.0 + rng.random() * 2.0, 3)
        return AttackSpec(attack=self.name, position=position,
                          victims=(victim,), prefix=str(ACK_PREFIX),
                          activate_time=activate)

    def workload_events(self, spec: AttackSpec) -> List[Dict[str, object]]:
        events = super().workload_events(spec)
        events.append({"t": spec.activate_time, "kind": "originate",
                       "asn": spec.victims[0],
                       "prefix": str(ACK_PREFIX)})
        return events

    def install(self, world: World, spec: AttackSpec) -> None:
        if not world.faulty:
            return
        for recorder in world.recorders(spec.position):
            install_inbound_drop(recorder, spec.victims[0],
                                 active_from=spec.activate_time - 0.5,
                                 acknowledge=False)

    def drive(self, world: World, spec: AttackSpec) -> None:
        standard_workload(world.network)
        victim = spec.victims[0]
        world.network.schedule_fault(
            spec.activate_time, "originate-ack-probe",
            lambda: world.network.originate(victim, ACK_PREFIX))
        ack_timeout = world.spider.config.ack_timeout
        world.network.run_until(spec.activate_time + ack_timeout + 2.0)

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        # No verification or audits: the stonewalled messages make the
        # faulty recorder's mirror legitimately diverge from its
        # speaker, and the timeout alone is the §6.2 detection path.
        result = DetectResult()
        result.spider.extend(world.spider.sweep_overdue_acks())
        result.netreview.extend(world.netreview.sweep_overdue_acks())
        return result

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        must = {spec.victims[0]: frozenset({FaultKind.MISSING_MESSAGE})}
        return (SystemExpectation(detects=True, must_detect=dict(must)),
                SystemExpectation(detects=True, must_detect=dict(must)))


# ----------------------------------------------------------------------
# 6. Equivocating commitments


class EquivocationAdversary(Adversary):
    """The faulty AS sends different commitment roots to different
    neighbors (INVALIDCOMMIT, §4.5).  Lied-to SPIDeR neighbors detect on
    receipt of the second root; the VERIFY-broadcast cross-check yields
    a transferable PoM.  NetReview has no commitment broadcast at all —
    the attack surface, and hence the detection, is absent: the
    differential's starkest case."""

    name = "equivocation"
    privacy_check = False

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates = [asn for asn in sorted(probe.speakers)
                      if len([n for n in probe.speaker(asn).neighbors
                              if n in probe.speakers]) >= 2]
        if not candidates:
            return None
        position = candidates[rng.randint(0, len(candidates) - 1)]
        neighbors = sorted(n for n in
                           probe.speaker(position).neighbors
                           if n in probe.speakers)
        count = rng.randint(1, len(neighbors) - 1)
        victims = tuple(sorted(rng.sample(neighbors, count)))
        return AttackSpec(attack=self.name, position=position,
                          victims=victims, intensity=count)

    def install(self, world: World, spec: AttackSpec) -> None:
        if not world.faulty:
            return
        # On the baseline the second "root" is as empty as the first
        # and nobody stores either: the fault is installed, the attack
        # surface is absent.
        for recorder in world.recorders(spec.position):
            install_equivocation(recorder, set(spec.victims))

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        result = DetectResult()
        record = world.spider.commit_now(spec.position)
        world.netreview.recorders[spec.position].make_commitment()
        world.network.settle()  # deliver both commitment variants
        for asn in sorted(world.spider.nodes):
            result.spider.extend(world.spider.nodes[asn].detections)
        poms = world.spider.cross_check_commitments(
            spec.position, record.commit_time)
        result.extras["equivocation_poms"] = len(poms)
        if world.faulty and not poms:
            result.problems.append(
                "equivocation: cross-check produced no PoM")
        if not world.faulty and poms:
            result.problems.append(
                "equivocation: control world produced a PoM")
        result.spider.extend(world.spider.sweep_overdue_acks())
        reports, records = audit_position(world, spec.position,
                                          check_derivation=False)
        result.audit_reports = reports
        result.netreview.extend(records)
        result.netreview.extend(world.netreview.sweep_overdue_acks())
        return result

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        spider_must = {v: frozenset({FaultKind.EQUIVOCATION})
                       for v in spec.victims}
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=False))


# ----------------------------------------------------------------------
# 7. Proof tampering


class ProofTamperAdversary(Adversary):
    """The faulty AS doctors the evidence itself: a bit proof sent to
    one neighbor is re-signed with the bit flipped (§7.4 fault 3), and
    the log handed to NetReview auditors is edited in place.  The Merkle
    arithmetic exposes the former; the §6.5 hash chain the latter."""

    name = "proof-tamper"

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates: List[Tuple[int, int, Prefix]] = []
        for position in sorted(probe.speakers):
            speaker = probe.speaker(position)
            for producer in sorted(speaker.neighbors):
                if producer not in probe.speakers:
                    continue
                for prefix in WORKLOAD_PREFIXES:
                    if probe.speaker(producer).advertised_to(
                            position, prefix) is not None:
                        candidates.append((position, producer, prefix))
        if not candidates:
            return None
        position, producer, prefix = candidates[
            rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position,
                          victims=(producer,), prefix=str(prefix))

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        result = DetectResult()
        world.spider.commit_now(spec.position)
        world.netreview.recorders[spec.position].make_commitment()
        world.network.settle()
        elector_node = world.spider.nodes[spec.position]
        commit_time = elector_node.recorder.commitments[-1].commit_time
        reconstruction = elector_node.proofgen.reconstruct(commit_time)
        for neighbor in participant_neighbors(world, spec.position):
            proofs = elector_node.proofgen.proofs_for(reconstruction,
                                                      neighbor)
            if world.faulty and neighbor == spec.victims[0]:
                proofs = tamper_proof_set(elector_node.recorder.signer,
                                          proofs, spec.prefix_value)
            result.outcomes.append(world.spider.check_proofs(
                spec.position, neighbor, commit_time, proofs))
        result.spider.extend(
            spider_node.detection_records(result.outcomes))
        result.spider.extend(world.spider.sweep_overdue_acks())
        if world.faulty:
            tamper_log_entry(
                world.netreview.recorders[spec.position].log, -1)
        reports, records = audit_position(world, spec.position,
                                          check_derivation=False)
        result.audit_reports = reports
        result.netreview.extend(records)
        result.netreview.extend(world.netreview.sweep_overdue_acks())
        return result

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        spider_must = {
            spec.victims[0]: frozenset({FaultKind.INVALID_PROOF})}
        netreview_must = {
            n: frozenset({FaultKind.INVALID_SIGNATURE})
            for n in participant_neighbors(faulty_world, spec.position)}
        return (SystemExpectation(detects=True, must_detect=spider_must),
                SystemExpectation(detects=True,
                                  must_detect=netreview_must))


# ----------------------------------------------------------------------
# 8. Collusion


class CollusionAdversary(Adversary):
    """The elector and its best-route supplier collude: the supplier's
    route is dropped from the committed state *with the supplier's
    blessing*, so no honest AS holds the evidence.  Section 4.6: the
    colluders can claim any inputs, and if some claimed combination
    makes the offers conform, no detection is guaranteed — the oracle
    checks :func:`~repro.core.collusion.violation_detectable` agrees
    that this instance is maskable, and that honest participants indeed
    raise nothing on either system."""

    name = "collusion"

    def sample(self, probe: Network,
               rng: random.Random) -> Optional[AttackSpec]:
        candidates: List[Tuple[int, int, Prefix]] = []
        for position in sorted(probe.speakers):
            speaker = probe.speaker(position)
            for prefix in WORKLOAD_PREFIXES:
                best = speaker.best(prefix)
                if best is None or not best.as_path:
                    continue
                confederate = best.as_path[0]
                if confederate == position or \
                        confederate not in probe.speakers:
                    continue
                receivers = [
                    n for n in sorted(speaker.neighbors)
                    if n in probe.speakers and n != confederate and
                    speaker.advertised_to(n, prefix) is not None]
                if receivers:
                    candidates.append((position, confederate, prefix))
        if not candidates:
            return None
        position, confederate, prefix = candidates[
            rng.randint(0, len(candidates) - 1)]
        return AttackSpec(attack=self.name, position=position,
                          accomplices=(confederate,), prefix=str(prefix))

    def install(self, world: World, spec: AttackSpec) -> None:
        if not world.faulty:
            return
        confederate = spec.accomplices[0]
        prefix = spec.prefix_value
        for recorder in world.recorders(spec.position):
            install_inbound_drop(recorder, confederate,
                                 prefixes={prefix})
        install_import_filter(
            world.network.speaker(spec.position),
            lambda route, neighbor: neighbor == confederate and
            route.prefix == prefix)

    def detect(self, world: World, spec: AttackSpec) -> DetectResult:
        result = DetectResult()
        accomplices = set(spec.accomplices)
        world.spider.commit_now(spec.position)
        world.netreview.recorders[spec.position].make_commitment()
        world.network.settle()
        result.outcomes = world.spider.verify(spec.position)
        for record in spider_node.detection_records(result.outcomes):
            (result.discarded if record.detector in accomplices
             else result.spider).append(record)
        for record in world.spider.sweep_overdue_acks():
            (result.discarded if record.detector in accomplices
             else result.spider).append(record)
        reports, records = audit_position(world, spec.position,
                                          check_derivation=False,
                                          exclude=spec.accomplices)
        result.audit_reports = reports
        result.netreview.extend(records)
        # The confederate's own audit would flag the swallowed message —
        # but a colluder does not accuse its partner; keep it on the
        # record as discarded evidence the oracle must NOT count.
        for accomplice in spec.accomplices:
            if accomplice not in participant_neighbors(
                    world, spec.position):
                continue
            try:
                own = world.netreview.audit(spec.position, accomplice,
                                            cross_check=True)
            except TamperError:
                continue
            result.discarded.extend(
                netreview_auditor.detection_records([own]))
        for record in world.netreview.sweep_overdue_acks():
            (result.discarded if record.detector in accomplices
             else result.netreview).append(record)
        if world.faulty:
            result.extras["violation_detectable"] = \
                self._theory_check(world, spec)
        return result

    def _theory_check(self, world: World, spec: AttackSpec) -> bool:
        """Does §4.6 predict guaranteed detection for this instance?"""
        position = spec.position
        prefix = spec.prefix_value
        accomplices = set(spec.accomplices)
        elector_node = world.spider.nodes[position]
        scheme = elector_node.recorder.scheme
        speaker = world.network.speaker(position)
        promises: Dict[int, Promise] = {}
        offers: Dict[int, RouteOrNull] = {}
        honest_inputs: List[RouteOrNull] = []
        for neighbor in participant_neighbors(world, position):
            if neighbor in accomplices:
                continue
            promise = elector_node.recorder.promises.get(neighbor)
            if promise is None:
                continue
            promises[neighbor] = promise
            advertised = speaker.advertised_to(neighbor, prefix)
            offers[neighbor] = NULL_ROUTE if advertised is None else \
                elector_view(advertised, position)
            received = speaker.received_from(neighbor, prefix)
            if received is not None:
                honest_inputs.append(received)
        return violation_detectable(scheme, promises, honest_inputs,
                                    sorted(accomplices), offers)

    def expectations(self, faulty_world: World, spec: AttackSpec,
                     ) -> Tuple[SystemExpectation, SystemExpectation]:
        # The masking guarantee: no honest participant is required to
        # (or allowed to) detect anything.
        return (SystemExpectation(detects=False),
                SystemExpectation(detects=False))


#: Every attack class, in the fixed order campaigns cycle through.
ATTACK_CLASSES: Tuple[Callable[[], Adversary], ...] = (
    RouteDropAdversary,
    WrongfulExportAdversary,
    RouteLeakAdversary,
    InterceptionAdversary,
    AckWithholdingAdversary,
    EquivocationAdversary,
    ProofTamperAdversary,
    CollusionAdversary,
)


def adversary_for(spec: AttackSpec) -> Adversary:
    """The attack class a spec names."""
    for cls in ATTACK_CLASSES:
        adversary = cls()
        if adversary.name == spec.attack:
            return adversary
    raise ValueError(f"unknown attack class {spec.attack!r}")


#: The §7.4 functionality check: the paper's three faults injected at
#: AS 5, plus the two other recorder-level faults (§4.5 equivocation,
#: §6.2 stonewalling), each a fixed spec for the campaign engine.  The
#: control world of any of them is the paper's clean run; the control
#: world of ``wrongly-exporting`` is its "fixed export policy" run.
SEC74_SPECS: Dict[str, AttackSpec] = {
    "overaggressive-filter": AttackSpec(
        attack="route-drop", position=FOCUS_AS, victims=(7,),
        prefix=str(GOOD_PREFIX)),
    "wrongly-exporting": AttackSpec(
        attack="wrongful-export", position=FOCUS_AS, victims=(7, 8),
        prefix=str(SECRET_PREFIX)),
    "tampered-bit-proof": AttackSpec(
        attack="proof-tamper", position=FOCUS_AS, victims=(8,),
        prefix=str(GOOD_PREFIX)),
    "equivocating-commitments": AttackSpec(
        attack="equivocation", position=FOCUS_AS, victims=(8,)),
    "ack-withholding": AttackSpec(
        attack="ack-withhold", position=FOCUS_AS, victims=(7,),
        prefix=str(ACK_PREFIX), activate_time=7.0),
}
