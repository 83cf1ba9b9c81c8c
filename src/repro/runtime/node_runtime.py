"""Hosting a SPIDeR node: one host, on a socket or in the simulator.

A :class:`NodeRuntime` owns what one AS's SPIDeR stack needs: a clock
(stepped, wall or a simulator's), timers for the Nagle and retry
timers, a thread-safe inbox fed by the transport, the §6.2 delivery
service and the :class:`~repro.spider.node.SpiderNode` itself.  A
:class:`Deployment` puts one on every AS of a simulated network, so
campaigns run the code sockets run.

Determinism is the design center.  Transports deliver into the inbox
from arbitrary threads, but *processing* happens only when the caller
invokes :meth:`deliver_pending` — so a scripted exchange produces the
same log entries, with the same timestamps, whether the bytes crossed a
loopback hub or two OS processes and a TCP stack (the acceptance test
compares those logs byte for byte).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, \
    Protocol, Sequence, Tuple, Type

from ..bgp.messages import Announce, Withdraw
from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..core.classes import ClassScheme
from ..core.promise import Promise, total_order_promise
from ..core.verdict import DetectionRecord, FaultKind
from ..crypto.hashing import constant_time_eq
from ..crypto.keys import Identity, KeyRegistry, make_identity
from ..netsim.events import Simulator
from ..netsim.network import Network
from ..obs.registry import ClockLike, get_registry
from ..spider.config import SpiderConfig
from ..spider.evidence import CommitmentEquivocationPoM, \
    commitment_equivocation_valid, missing_ack_evidence_valid
from ..spider.node import PROOF_TRAFFIC, SPIDER_TRAFFIC, SpiderNode, \
    VerificationOutcome, evaluation_scheme
from ..spider.proofgen import ProofSet
from ..spider.recorder import CommitmentRecord, Recorder, Scheduler
from ..spider.wire import SpiderCommitment, same_millisecond
from ..store.recovery import RecoveredLog, Recovery, recover
from ..store.seglog import SegmentedLogStore
from .delivery import DeliveryService, RetryPolicy
from .transport import NetsimTransport, Transport


class SteppableClock(ClockLike, Protocol):
    """A clock the runtime may move forward explicitly."""

    def advance_to(self, t: float) -> None: ...


class StepClock:
    """A manually advanced clock on the millisecond grid.

    Millisecond quantization matches the wire timestamp resolution, so
    a stepped run and its decoded-from-the-wire twin agree exactly.
    """

    def __init__(self, start: float = 0.0):
        self._now = round(float(start), 3)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        t = round(float(t), 3)
        if t < self._now:
            raise ValueError(
                f"time cannot move backwards ({t} < {self._now})")
        self._now = t


class WallClock:
    """Wall-clock time, optionally offset to start near zero.

    ``now`` is derived from :func:`time.monotonic` plus a wall offset
    captured once at construction — never from :func:`time.time`
    directly.  ``time.time()`` can step backwards (NTP corrections,
    manual clock changes), and a backwards step would produce
    out-of-order evidence-log timestamps, which the tamper-evident log
    treats as suspect.  With the captured offset, timestamps stay on the
    wall timeline (loose synchronization across recorders still holds,
    Section 6.4) but can never run backwards within a process.
    """

    def __init__(self, rebase: bool = True):
        mono = time.monotonic()
        # now == (monotonic - epoch): zero-based when rebasing,
        # anchored to the construction-time wall clock otherwise.
        self._epoch = mono if rebase else mono - time.time()

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch


class TimerWheel:
    """Deterministic (due, insertion-order) timer queue.

    With a :class:`StepClock`, timers fire inside :meth:`pump` — which
    :meth:`NodeRuntime.advance_to` calls after moving the clock — so a
    scripted run controls exactly when retries and Nagle flushes happen.
    """

    def __init__(self, clock: ClockLike):
        self.clock = clock
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(self._queue,
                       (self.clock.now + delay, next(self._seq), fn))

    def pump(self) -> int:
        """Run every timer due at the current clock; returns the count."""
        fired = 0
        while self._queue and self._queue[0][0] <= self.clock.now:
            _due, _seq, fn = heapq.heappop(self._queue)
            fn()
            fired += 1
        return fired


class NodeRuntime:
    """One AS's SPIDeR node, hosted behind a :class:`Transport`."""

    def __init__(self, identity: Identity, registry: KeyRegistry,
                 scheme: ClassScheme, transport: Transport,
                 promises: Optional[Dict[int, Promise]] = None,
                 neighbors: Tuple[int, ...] = (),
                 config: Optional[SpiderConfig] = None,
                 clock: Optional[SteppableClock] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 retry_seed: int = 0,
                 store_dir: Optional[str] = None,
                 store_fsync: str = "always",
                 sim: Optional[Simulator] = None,
                 recorder_class: Type[Recorder] = Recorder,
                 master_seed: Optional[bytes] = None):
        """On a ``sim``, its clock and event loop replace ``clock`` and
        :attr:`timers`; ``recorder_class`` and ``master_seed`` are the
        system's (default: SPIDeR's, ``spider-runtime-<asn>``)."""
        if promises is None:
            # A Promise is frozen, so one serves every neighbor.
            promises = dict.fromkeys(neighbors,
                                     total_order_promise(scheme))
        self.config = config if config is not None else SpiderConfig()
        if sim is not None:
            clock = sim.clock
        self.clock = clock if clock is not None else StepClock()
        self.timers = TimerWheel(self.clock)
        schedule: Scheduler = self.timers.schedule
        retry_schedule: Scheduler = schedule
        if sim is not None:
            schedule = sim.after
            retry_schedule = functools.partial(sim.after, timer=True)
        self.transport = transport
        # Durable log store.  Recovery replays and chain-verifies
        # everything on disk before the node processes its first
        # message; a directory it refuses is never opened for writing.
        self.store: Optional[SegmentedLogStore] = None
        #: What the cold open recovered; the entries stay the log's
        #: alone, so a trim frees them.
        self.recovery: Optional[RecoveredLog] = None
        recovery: Optional[Recovery] = None
        if store_dir is not None:
            store = SegmentedLogStore(store_dir, fsync=store_fsync,
                                      node=f"as{identity.asn}")
            recovery = recover(store)
            self.store = store
        self.node = SpiderNode(recorder_class(
            identity=identity, registry=registry, scheme=scheme,
            promises=promises, config=self.config, clock=self.clock,
            transport=transport,
            master_seed=master_seed if master_seed is not None
            else b"spider-runtime-%d" % identity.asn,
            schedule=schedule, log_store=self.store,
            recovered_entries=None if recovery is None
            else recovery.entries))
        if recovery is not None:
            self.recovery = RecoveredLog(recovery.head, recovery.next_index,
                                         recovery.stats, self.recorder.log)
        self.delivery = DeliveryService(
            self.node.recorder, retry_schedule, transport.reaches,
            policy=retry_policy, seed=retry_seed)
        self.inbox: Deque[object] = deque()
        #: Inbound backlog depth: how far message arrival has outrun
        #: :meth:`deliver_pending` — the runtime-side backpressure
        #: signal the soak scenario watches per peer.
        self._inbox_gauge = get_registry().gauge(
            "runtime_inbox_depth", **recorder_class.labels_for(identity.asn))
        inbox_append = self.inbox.append
        inbox_gauge = self._inbox_gauge

        def _enqueue(message: object) -> None:
            inbox_append(message)
            inbox_gauge.set(len(self.inbox))

        self._enqueue = _enqueue
        transport.on_receive(_enqueue)

    @property
    def asn(self) -> int:
        return self.node.asn

    @property
    def recorder(self) -> Recorder:
        return self.node.recorder

    # ------------------------------------------------------------------
    # Time

    def advance_to(self, t: float) -> int:
        """Move the stepped clock and fire every timer now due."""
        self.clock.advance_to(t)
        return self.timers.pump()

    # ------------------------------------------------------------------
    # Traffic

    def announce(self, receiver: int, route: Route) -> None:
        """Send one SPIDeR announcement (as if BGP just exported it)."""
        self.recorder.mirror_sent_update(
            Announce(sender=self.asn, receiver=receiver, route=route))

    def withdraw(self, receiver: int, prefix: Prefix) -> None:
        self.recorder.mirror_sent_update(
            Withdraw(sender=self.asn, receiver=receiver, prefix=prefix))

    def commit(self) -> CommitmentRecord:
        """One commitment round (broadcasts to all known neighbors)."""
        return self.recorder.make_commitment()

    # ------------------------------------------------------------------
    # Inbound processing (always on the caller's thread)

    def deliver_pending(self, limit: Optional[int] = None) -> int:
        """Process queued inbound messages; returns how many ran."""
        processed = 0
        while self.inbox and (limit is None or processed < limit):
            self.node.receive_spider(self.inbox.popleft())
            processed += 1
        if processed:
            self._inbox_gauge.set(len(self.inbox))
            # Group-commit boundary: everything this round logged
            # (received messages, ACK bookkeeping) becomes durable
            # before the caller observes it as processed.
            self.recorder.log.sync()
        return processed

    def close(self) -> None:
        """Unsubscribe from the transport, release the recorder's worker
        pool and close the store.  The transport may outlive the node;
        it no longer delivers here, nor keeps the node reachable."""
        self.transport.remove_receiver(self._enqueue)
        self.recorder.close()
        if self.store is not None:
            self.store.close()

    def wait_for_inbox(self, count: int, timeout: float = 30.0) -> None:
        """Block (wall time) until ``count`` messages are queued.

        Only meaningful with a real transport; the loopback hub delivers
        synchronously, so the condition is checked first.
        """
        deadline = time.monotonic() + timeout
        while len(self.inbox) < count:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"AS {self.asn}: inbox has {len(self.inbox)} of "
                    f"{count} expected messages after {timeout}s")
            time.sleep(0.005)


# ----------------------------------------------------------------------
# Simulated deployments: the same host on every AS of a netsim Network


class Deployment:
    """One :class:`NodeRuntime` per participating AS of a simulated
    network, on a :class:`~repro.runtime.transport.NetsimTransport`.

    The simulator is each runtime's clock and event loop (retry timers
    are timers, ``after(…, timer=True)``, so a settle does not wait for
    one an ACK made moot), a message is processed in the event that
    delivers it, and the recorder mirrors every update its AS's speaker
    sends.  ``scheme`` and ``promise_factory(elector, neighbor)`` (by
    default the total order of the elector's scheme) or
    ``scheme_factory(asn)`` set the promises; ``participants`` limits
    deployment to an island of the topology (§6.7).  A system sets the
    class attributes: AS ``n``'s 512-bit key is drawn from seed
    ``key_seed + n``, its master secret is ``seed_format % n``.
    """

    #: ``DetectionRecord.system``, what a silent neighbor never
    #: acknowledged, and the ``traffic_bytes_total`` category.
    system: str
    unacknowledged: str
    category: str
    key_seed: int
    seed_format: bytes
    recorder_class: Type[Recorder] = Recorder

    def __init__(self, network: Network,
                 scheme: Optional[ClassScheme] = None,
                 config: SpiderConfig = SpiderConfig(),
                 promise_factory: Optional[
                     Callable[[int, int], Promise]] = None,
                 scheme_factory: Optional[
                     Callable[[int], ClassScheme]] = None,
                 participants: Optional[Iterable[int]] = None):
        self.network = network
        self.config = config
        self.scheme = scheme if scheme is not None else \
            evaluation_scheme()
        self.registry = KeyRegistry()
        self.participants = tuple(sorted(
            network.topology.ases if participants is None
            else participants))
        identities = {
            asn: make_identity(asn, registry=self.registry, bits=512,
                               seed=self.key_seed + asn)
            for asn in self.participants}
        endpoints: Dict[int, NetsimTransport] = {}
        self.runtimes: Dict[int, NodeRuntime] = {}
        for asn in self.participants:
            neighbors = tuple(n for n in network.topology.neighbors(asn)
                              if n in identities)
            transport = NetsimTransport(
                asn, network, self.category, endpoints,
                system_labels=self.recorder_class.system_labels)
            runtime = NodeRuntime(
                identities[asn], self.registry,
                scheme_factory(asn) if scheme_factory is not None
                else self.scheme, transport,
                promises=None if promise_factory is None else
                {n: promise_factory(asn, n) for n in neighbors},
                neighbors=neighbors, config=config, sim=network.sim,
                recorder_class=self.recorder_class,
                master_seed=self.seed_format % asn)
            transport.on_receive(
                lambda _message, rt=runtime: rt.deliver_pending())
            network.speaker(asn).on_send(
                runtime.recorder.mirror_sent_update)
            self.runtimes[asn] = runtime
        self.nodes: Dict[int, SpiderNode] = {
            asn: runtime.node for asn, runtime in self.runtimes.items()}

    def missing_ack_detections(self) -> List[DetectionRecord]:
        """§6.2 as detection records: one per (sender, silent neighbor)
        that the sender's delivery service gave up on, with valid
        evidence."""
        records: List[DetectionRecord] = []
        for asn, runtime in sorted(self.runtimes.items()):
            silent = dict.fromkeys(
                evidence.accused for evidence in runtime.delivery.evidence
                if missing_ack_evidence_valid(self.registry, evidence,
                                              self.config.ack_timeout))
            records.extend(DetectionRecord(
                system=self.system, detector=asn, accused=accused,
                kind=FaultKind.MISSING_MESSAGE, source="ack-sweep",
                description=(f"AS{accused} never acknowledged "
                             f"{self.unacknowledged} (T_max exceeded)"))
                for accused in silent)
        return records


class SpiderDeployment(Deployment):
    """SPIDeR running on every (participating) AS of a simulated
    network, and verification driven end to end."""

    system, unacknowledged = "spider", "a SPIDeR message"
    category = SPIDER_TRAFFIC
    key_seed, seed_format = 4242, b"spider-node-%d"

    def node(self, asn: int) -> SpiderNode:
        return self.nodes[asn]

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
