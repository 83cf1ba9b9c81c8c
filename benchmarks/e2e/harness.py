"""The closed-loop pipeline harness.

One :class:`Pipeline` drives one seeded workload through the real
stack::

    2 scripted peers (one generator thread) -> TcpTransport sockets
      -> NodeRuntime(store_dir=...) -> commit()
      -> ProofGenerator.reconstruct / proofs_for -> codec
      -> Checker.check -> cold NodeRuntime re-open on the same directory

Load is **closed loop, 2 clients, one window outstanding**: client A's
half-window is written, the harness waits until the hub's inbox holds
it, then client B's half is released; the hub then processes the whole
window with one ``deliver_pending`` and one fixed clock step flushes
the ACK outbox.  The next window starts only when both peers hold
every ACK.  Because the inbox order, the stepped clock and the flush
points are fixed, log bytes, ACK batching and every count are a pure
function of the seed.  (There is no open-loop latency here on purpose:
``NodeRuntime`` has no loop of its own, so arrival-to-ACK latency would
measure this harness's pump, not the program.)

Two ``src/`` defects are steered around, not patched (see README):
the first commitment is made on the empty table so the daily
checkpoint stays under the ``blob16`` limit, and the stepped clock
moves on after every commitment before anything else is logged.
"""

import contextlib
import dataclasses
import os
import random
import resource
import shutil
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, \
    Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core.promise import total_order_promise
from repro.crypto.keys import Identity, KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.obs.registry import get_registry
from repro.runtime.codec import decode_message, encode_message
from repro.runtime.framing import encode_frames
from repro.runtime.logdump import encode_log_entry
from repro.runtime.node_runtime import NodeRuntime, StepClock
from repro.runtime.tcp import TcpTransport
from repro.spider.checker import Checker, CheckReport
from repro.spider.config import SpiderConfig
from repro.spider.node import evaluation_scheme
import repro.spider.proofgen as proofgen_module
from repro.spider.proofgen import ProofSet, Reconstruction
from repro.spider.wire import SpiderAnnounce, SpiderBitProof, \
    SpiderCommitment, SpiderWithdraw, announce_payload, \
    route_signature_payload, withdraw_payload

from layers import Tracer, pool_probe, tcp_thread_cpu
from peers import PeerGroup
from spin import Unit, UnitClock, typical_pace
from workloads import HUB_ASN, PEER_ASNS, Script, Spec, Update, \
    build_script

HOST = "127.0.0.1"
KEY_BITS = 1024  # paper section 7.2
#: Identities are the same on every seed: seeded prime search takes
#: 0.1-1.5 s depending on the seed, which would make ``setup_s`` a
#: lottery; the seed varies the traffic, not who sends it.
KEY_SEED = 20120118

#: Virtual seconds: window ``k`` is delivered at ``T0 + k * SLOT``, its
#: ACK outbox flushes ``FLUSH`` later, a commitment after it is made at
#: ``+ COMMIT_AT`` and the clock then moves to the next slot, so nothing
#: is ever logged in a commitment's own millisecond.
T0 = 10.0
SLOT = 1.0
FLUSH = 0.05
COMMIT_AT = 0.5

#: Cold opens made on the hub's own directory after it closed; the
#: rest re-open crash images of the live directory during the run.
FINAL_OPENS = 3

#: Windows pre-signed per set-up unit.
PRESIGN_CHUNK = 6

WAIT_SECONDS = 60.0

_NO_SPAN: ContextManager[None] = contextlib.nullcontext()


@dataclass
class Presigned:
    """One window as wire bytes, with what the peer expects back."""

    blobs: Dict[int, bytes]
    hashes: Dict[int, List[bytes]]
    updates: int


@dataclass
class Export:
    """One scripted hub export (``route`` None = withdrawal)."""

    receiver: int
    prefix: Prefix
    route: Optional[Route]


@dataclass
class CommitPoint:
    """What everybody knew when one commitment was made."""

    commit_time: float
    root: bytes
    census_total: int
    log_length: int
    #: Each peer's own record: what it was advertising to the hub and
    #: what the hub was advertising to it.
    sent: Dict[int, Dict[Prefix, Route]]
    received: Dict[int, Dict[Prefix, Route]]


@dataclass
class Tally:
    """Attempted/failed counts per kind of operation."""

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, kind: str, attempted: int, failed: int = 0,
            note: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}")


class Pipeline:
    """One workload run: set-up, phases, checks, teardown."""

    def __init__(self, spec: Spec, seed: int, out_dir: str,
                 tracer: Optional[Tracer] = None):
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.clock = UnitClock()
        if tracer is not None:
            self.clock.trace_hook = lambda on: \
                tracer.install() if on else tracer.uninstall()
        self.tally = Tally()
        self.rng = random.Random(f"e2e-harness:{spec.name}:{seed}")
        self.store_dir = os.path.join(
            out_dir, f"store-{spec.name}-{seed}-{os.getpid()}")
        self.scheme = evaluation_scheme()
        self.config = SpiderConfig(commit_workers=1)
        self.registry = KeyRegistry()
        self.now = 0.0
        self.arrivals = 0
        self._arrival = threading.Event()
        self.commits: List[CommitPoint] = []
        self.transports: List[TcpTransport] = []
        self.runtime: Optional[NodeRuntime] = None
        self.peers: Optional[PeerGroup] = None
        self.updates_sent = 0
        self.proof_bytes = 0
        self.proof_prefixes = 0
        self.controls_fired = 0
        self.digest_hits = 0
        self.digest_misses = 0
        self.round_hashes: List[int] = []
        self.entries_replayed: List[int] = []
        self.tcp_cpu: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # plumbing

    def _span(self, name: str, layer: str = "runtime",
              n: int = 0) -> ContextManager[None]:
        if self.tracer is None or not self.tracer.active:
            return _NO_SPAN
        return self.tracer.scope(name, layer, n)

    def _unit(self, phase: str, work: Callable[[], int],
              traced: bool = False) -> Unit:
        index = len(self.clock.units)
        if self.tracer is not None:
            self.tracer.set_unit(index)
        return self.clock.run(phase, work, traced=traced,
                              full_gc=phase not in ("ingest", "churn"))

    def _traced(self, phase: str) -> bool:
        """Traced runs trace every other unit of each phase, so traced
        and plain units of one run can be compared pairwise."""
        if self.tracer is None:
            return False
        return len(self.clock.phase_units(phase)) % 2 == 0

    def _arrived(self, _message: object) -> None:
        self.arrivals += 1
        self._arrival.set()

    def _await_inbox(self, target: int) -> None:
        while True:
            self._arrival.clear()
            if self.arrivals >= target:
                return
            if not self._arrival.wait(WAIT_SECONDS):
                raise TimeoutError(
                    f"hub inbox holds {self.arrivals} of {target} "
                    f"messages after {WAIT_SECONDS}s")

    def _advance(self, t: float) -> None:
        assert self.runtime is not None
        self.now = round(t, 3)
        with self._span("runtime.advance_to"):
            self.runtime.advance_to(self.now)

    # ------------------------------------------------------------------
    # set-up (every step a spun unit of phase "setup")

    def setup(self) -> None:
        self._unit("setup", self._make_identities)
        self._unit("setup", self._make_script)
        windows = self.script.windows
        self.presigned: List[Optional[Presigned]] = [None] * len(windows)
        for start in range(0, len(windows), PRESIGN_CHUNK):
            chunk = range(start, min(start + PRESIGN_CHUNK, len(windows)))
            self._unit("setup", lambda c=chunk: self._presign(c))
        self._unit("setup", self._open_sockets)
        self._unit("setup", self._first_commitment)
        self._unit("setup", self._warm_table)

    def _make_identities(self) -> int:
        self.identities: Dict[int, Identity] = {
            asn: make_identity(asn, registry=self.registry,
                               bits=KEY_BITS, seed=KEY_SEED + asn)
            for asn in (HUB_ASN,) + PEER_ASNS}
        self.signers = {asn: Signer(self.identities[asn])
                        for asn in PEER_ASNS}
        return len(self.identities)

    def _make_script(self) -> int:
        self.script: Script = build_script(self.spec, self.seed)
        self.exports = self._plan_exports() if self.spec.exports \
            else [[] for _ in self.script.windows]
        return len(self.script.windows)

    def _plan_exports(self) -> List[List[Export]]:
        """The hub's BGP side, scripted: after each window it exports
        its shortest import (ties to the lower ASN) to the neighbour it
        did not come from, and withdraws what that displaces."""
        imports: Dict[int, Dict[Prefix, Route]] = {
            peer: {} for peer in PEER_ASNS}
        exported: Dict[int, Dict[Prefix, Route]] = {
            peer: {} for peer in PEER_ASNS}
        plan: List[List[Export]] = []
        for window in self.script.windows:
            touched: List[Prefix] = []
            for peer in PEER_ASNS:
                for burst in window.bursts[peer]:
                    for update in burst:
                        _apply(imports[peer], update)
                        touched.append(update.prefix)
            step: List[Export] = []
            for prefix in sorted(set(touched)):
                offers = [(imports[peer][prefix].path_length, peer)
                          for peer in PEER_ASNS if prefix in imports[peer]]
                source = min(offers)[1] if offers else None
                for receiver in PEER_ASNS:
                    wanted = None
                    if source is not None and receiver != source:
                        wanted = imports[source][prefix].prepended(HUB_ASN)
                    have = exported[receiver].get(prefix)
                    if wanted == have:
                        continue
                    step.append(Export(receiver, prefix, wanted))
                    if wanted is None:
                        del exported[receiver][prefix]
                    else:
                        exported[receiver][prefix] = wanted
            plan.append(step)
        return plan

    def _presign(self, indices: Sequence[int]) -> int:
        """Sign windows exactly as ``Recorder._flush_chunk`` would: one
        batch signature over a burst's route signatures, one over its
        envelopes."""
        signed = 0
        for k in indices:
            window = self.script.windows[k]
            blobs: Dict[int, bytes] = {}
            hashes: Dict[int, List[bytes]] = {}
            for peer in PEER_ASNS:
                signer = self.signers[peer]
                parts: List[bytes] = []
                hashes[peer] = []
                for j, burst in enumerate(window.bursts[peer]):
                    stamp = round(T0 + k * SLOT + j * 0.001, 3)
                    messages = _sign_burst(signer, stamp, burst)
                    parts.append(encode_frames(
                        [encode_message(m) for m in messages]))
                    hashes[peer].extend(
                        m.message_hash() for m in messages)
                blobs[peer] = b"".join(parts)
            self.presigned[k] = Presigned(
                blobs=blobs, hashes=hashes, updates=window.updates())
            signed += window.updates()
        return signed

    def _open_sockets(self) -> int:
        os.makedirs(self.store_dir)
        self.peers = PeerGroup(HOST, HUB_ASN, self.signers)
        if self.tracer is not None:
            tracer = self.tracer
            self.peers.scope = lambda name: tracer.scope(name, "peer") \
                if tracer.active else _NO_SPAN
        self.ports = self.peers.start()
        self.sent: Dict[int, Dict[Prefix, Route]] = {
            peer: {} for peer in PEER_ASNS}
        self.received: Dict[int, Dict[Prefix, Route]] = {
            peer: {} for peer in PEER_ASNS}
        self._hub_marks = {peer: 0 for peer in PEER_ASNS}
        self.runtime = self._open_runtime(start=True)
        return 1

    def _open_runtime(self, start: bool,
                      directory: Optional[str] = None) -> NodeRuntime:
        """A hub runtime on the store directory, or on a crash image of
        it (a cold open whenever the directory already holds a log)."""
        transport = TcpTransport(
            HUB_ASN, host=HOST,
            peers={asn: (HOST, port) for asn, port in self.ports.items()})
        with self._span("runtime.open"):
            runtime = NodeRuntime(
                self.identities[HUB_ASN], self.registry, self.scheme,
                transport, neighbors=PEER_ASNS, config=self.config,
                clock=StepClock(self.now),
                store_dir=directory or self.store_dir,
                store_fsync=self.spec.store_fsync)
        if start:
            self._start(runtime)
        return runtime

    def _start(self, runtime: NodeRuntime) -> None:
        assert self.peers is not None
        transport = runtime.transport
        assert isinstance(transport, TcpTransport)
        transport.start()
        transport.on_receive(self._arrived)
        self.transports.append(transport)
        self.peers.connect(transport.port)

    def _first_commitment(self) -> int:
        self._advance(T0 - COMMIT_AT)
        self._commit()
        self._await_commitment()
        return 1

    def _warm_table(self) -> int:
        updates = 0
        for k, window in enumerate(self.script.windows):
            if window.kind == "warm":
                presigned = self.presigned[k]
                assert presigned is not None
                self._advance(T0 + k * SLOT)
                updates += self._window(presigned, self.exports[k])
                self._after_window(k, presigned)
        return updates

    # ------------------------------------------------------------------
    # phases

    def run(self) -> None:
        spec = self.spec
        windows = self.script.windows
        ingest = [k for k, w in enumerate(windows) if w.kind == "ingest"]
        churn = [k for k, w in enumerate(windows) if w.kind == "churn"]
        post = [k for k, w in enumerate(windows) if w.kind == "post"]
        stride = max(1, len(ingest) // spec.rounds)
        # Audits follow their round at once (still commitment-major):
        # spread over the run, each phase's units sample several of the
        # box's slow and fast regimes instead of one slice of time.
        audited = set(_spread(spec.audits, spec.rounds))
        # Cold opens likewise: all but the last FINAL_OPENS re-open a
        # crash image of the live directory after a round in the later
        # two thirds of the run (earlier the log is too short to time).
        first = spec.rounds // 3
        imaged = {first + index for index in _spread(
            spec.cold_opens - FINAL_OPENS, spec.rounds - first)}

        def round_after(k: int) -> None:
            done = len(self.commits) - 1  # commits[0]: the empty table
            self.commit_round(k)
            if done in audited:
                self.audit(len(self.commits) - 1)
            if done in imaged:
                self.cold_open_image()

        for position, k in enumerate(ingest):
            self.ingest("ingest", k)
            if not churn and (position + 1) % stride == 0 and \
                    len(self.commits) <= spec.rounds:
                round_after(k)
        for k in churn:
            self.ingest("churn", k)
            round_after(k)
        self._note_facts()
        self.restart(keep=bool(post))
        for k in post:
            self.ingest("ingest", k)
        if post:
            round_after(post[-1])
            self.audit(len(self.commits) - 1)
        assert self.peers is not None
        for record in self.peers.records.values():
            self.tally.add(
                "peer_frames", len(record.acked) + len(record.from_hub) +
                len(record.commitments),
                record.undecodable + record.unexpected,
                f"AS{record.asn} got frames it could not use")

    # -- ingest ---------------------------------------------------------

    def ingest(self, phase: str, k: int) -> Unit:
        presigned = self.presigned[k]
        assert presigned is not None
        exports = self.exports[k]
        self._advance(T0 + k * SLOT)
        cpu = tcp_thread_cpu()
        unit = self._unit(
            phase, lambda: self._window(presigned, exports),
            traced=self._traced(phase))
        self.tcp_cpu.append((tcp_thread_cpu() - cpu, unit.wall))
        self._after_window(k, presigned)
        return unit

    def _window(self, presigned: Presigned,
                exports: List[Export]) -> int:
        runtime, peers = self.runtime, self.peers
        assert runtime is not None and peers is not None
        export_count = {peer: sum(1 for e in exports
                                  if e.receiver == peer)
                        for peer in PEER_ASNS}
        peers.expect(acks={peer: len(presigned.hashes[peer])
                           for peer in PEER_ASNS},
                     exports=export_count)
        target = self.arrivals
        for peer in PEER_ASNS:
            target += len(presigned.hashes[peer])
            peers.send(peer, presigned.blobs[peer])
            self._await_inbox(target)
        with self._span("runtime.deliver_pending"):
            runtime.deliver_pending()
        for export in exports:
            with self._span("runtime.export"):
                if export.route is None:
                    runtime.withdraw(export.receiver, export.prefix)
                else:
                    runtime.announce(export.receiver, export.route)
        self._advance(self.now + FLUSH)
        if exports:
            self._await_inbox(target + len(exports))
            with self._span("runtime.deliver_pending"):
                runtime.deliver_pending()
        if not peers.wait(WAIT_SECONDS):
            raise TimeoutError("peers did not get every ACK for a "
                               f"window within {WAIT_SECONDS}s")
        return presigned.updates

    def _after_window(self, k: int, presigned: Presigned) -> None:
        """Untimed: check the window against the peers' own records and
        bring those records up to date."""
        assert self.peers is not None and self.runtime is not None
        missing = 0
        for peer in PEER_ASNS:
            record = self.peers.records[peer]
            expected = presigned.hashes[peer]
            got = record.acked[len(record.acked) - len(expected):]
            missing += len(set(expected) - set(got))
            if expected and not record.ack_samples[-1].valid(
                    self.registry):
                missing += 1
            for burst in self.script.windows[k].bursts[peer]:
                for update in burst:
                    _apply(self.sent[peer], update)
            for message in record.from_hub[self._hub_marks[peer]:]:
                if not message.valid(self.registry):
                    missing += 1
                if isinstance(message, SpiderAnnounce):
                    self.received[peer][message.prefix] = message.route
                else:
                    self.received[peer].pop(message.prefix, None)
            self._hub_marks[peer] = len(record.from_hub)
        alarms = len(self.runtime.recorder.alarms)
        self.updates_sent += presigned.updates
        self.tally.add("updates", presigned.updates, missing + alarms,
                       f"window {k}: {missing} unacknowledged, "
                       f"{alarms} alarms")

    # -- commitment rounds ---------------------------------------------

    def commit_round(self, k: int) -> Unit:
        self._advance(T0 + k * SLOT + COMMIT_AT)
        hashes = get_registry().total("mtt_hashes_total")
        unit = self._unit("commit", self._commit,
                          traced=self._traced("commit"))
        self.round_hashes.append(
            int(get_registry().total("mtt_hashes_total") - hashes))
        self._await_commitment()
        return unit

    def _commit(self) -> int:
        assert self.runtime is not None and self.peers is not None
        self.peers.expect(acks={}, commitments=len(PEER_ASNS))
        with self._span("runtime.commit"):
            record = self.runtime.commit()
        self.commits.append(CommitPoint(
            commit_time=record.commit_time, root=record.root,
            census_total=record.census_total,
            log_length=len(self.runtime.recorder.log),
            sent={p: dict(t) for p, t in self.sent.items()},
            received={p: dict(t) for p, t in self.received.items()}))
        return 1

    def _await_commitment(self) -> None:
        assert self.peers is not None
        if not self.peers.wait(WAIT_SECONDS):
            raise TimeoutError("a commitment did not reach both peers")

    # -- audits ----------------------------------------------------------

    def audit(self, index: int) -> Unit:
        point = self.commits[index]
        self.entries_replayed.append(point.log_length)
        outcome: List[Tuple[int, ProofSet, CheckReport]] = []
        unit = self._unit(
            "audit", lambda: self._audit(point, outcome),
            traced=self._traced("audit"))
        for peer, proofs, report in outcome:
            self.tally.add(
                "proof_sets", 1, 0 if report.ok else 1,
                f"t={point.commit_time} AS{peer}: "
                f"{[v.description for v in report.verdicts][:2]}")
            self.digest_hits += report.digest_cache_hits
            self.digest_misses += report.digest_cache_misses
        if self.controls_fired == 0 and outcome:
            self._negative_controls(point, outcome[0][0], outcome[0][1])
        return unit

    def _audit(self, point: CommitPoint,
               outcome: List[Tuple[int, ProofSet, CheckReport]]) -> int:
        """Reconstruct one commitment, then for each neighbour generate
        its proofs, push them through the codec and check them against
        the peer's own record and the commitment as it arrived."""
        assert self.runtime is not None and self.peers is not None
        proofgen = self.runtime.node.proofgen
        checked = 0
        for peer in PEER_ASNS:
            # Each neighbour's request reconstructs; the second one is
            # served by the proof generator's cache.
            try:
                with self._span("proofgen.reconstruct", "proofgen"):
                    reconstruction = proofgen.reconstruct(
                        point.commit_time)
            except (RuntimeError, ValueError) as exc:
                self.tally.add("commitments", 1, 1, str(exc))
                continue
            self.tally.add(
                "commitments", 1,
                0 if reconstruction.root == point.root else 1,
                f"t={point.commit_time}: root differs")
            sent = point.sent[peer]
            if self.spec.audit_sample:
                asked = self.rng.sample(
                    sorted(sent), min(self.spec.audit_sample, len(sent)))
                sent = {prefix: sent[prefix] for prefix in asked}
                with self._span("proofgen.proofs_for", "proofgen"):
                    proofs = self._producer_proofs(
                        reconstruction, peer, asked)
            else:
                with self._span("proofgen.proofs_for", "proofgen"):
                    proofs = proofgen.proofs_for(reconstruction, peer)
            delivered = self._over_the_wire(proofs)
            commitment = self.peers.records[peer].commitments.get(
                point.commit_time)
            if commitment is None:
                self.tally.add("proof_sets", 1, 1,
                               f"AS{peer} never received the "
                               f"commitment at t={point.commit_time}")
                continue
            with self._span("checker.check", "checker",
                            delivered.proof_count()):
                report = self._check(peer, commitment, delivered, sent,
                                     point.received[peer])
            outcome.append((peer, delivered, report))
            checked += report.proofs_checked
            self.proof_prefixes += len(
                set(delivered.producer_proofs) |
                set(delivered.consumer_proofs))
        return checked

    def _check(self, peer: int, commitment: SpiderCommitment,
               proofs: ProofSet, sent: Dict[Prefix, Route],
               received: Dict[Prefix, Route]) -> CheckReport:
        """``peer``'s check of one proof set against its own record."""
        return Checker(peer, self.registry, self.scheme).check(
            commitment, proofs, my_exports_to_elector=sent,
            my_imports_from_elector=received,
            promise=total_order_promise(self.scheme),
            elector_scheme=self.scheme)

    def _producer_proofs(self, reconstruction: Reconstruction,
                         peer: int, asked: Sequence[Prefix]) -> ProofSet:
        """The single-prefix producer query ("is my route to p in the
        commitment?", section 7.3) for each asked prefix.

        ``ProofGenerator.proofs_for_prefix`` would also volunteer the
        consumer 0-proofs for a prefix the hub does not export, which
        an honest hub that exports nothing cannot give; the producer
        half is composed here from the same public pieces it uses.
        """
        assert self.runtime is not None
        proofs = ProofSet(elector=HUB_ASN, recipient=peer,
                          commit_time=reconstruction.commit_time)
        signer = self.runtime.recorder.signer
        for prefix in asked:
            route = reconstruction.state.imports[peer][prefix]
            proof = proofgen_module.generate_proof(
                reconstruction.tree, prefix, self.scheme.classify(route))
            proofs.producer_proofs[prefix] = SpiderBitProof.make(
                signer, peer, reconstruction.commit_time, proof)
        return proofs

    def _over_the_wire(self, proofs: ProofSet) -> ProofSet:
        """Encode every proof and rebuild the set from the bytes."""
        delivered = ProofSet(elector=proofs.elector,
                             recipient=proofs.recipient,
                             commit_time=proofs.commit_time)
        with self._span("codec.encode_proofs", "runtime"):
            producer = [encode_message(p)
                        for p in proofs.producer_proofs.values()]
            consumer = [encode_message(p)
                        for group in proofs.consumer_proofs.values()
                        for p in group]
        self.proof_bytes += sum(map(len, producer)) + \
            sum(map(len, consumer))
        with self._span("codec.decode_proofs", "runtime"):
            for blob in producer:
                message = decode_message(blob)
                assert isinstance(message, SpiderBitProof)
                delivered.producer_proofs[message.proof.prefix] = message
            for blob in consumer:
                message = decode_message(blob)
                assert isinstance(message, SpiderBitProof)
                delivered.consumer_proofs.setdefault(
                    message.proof.prefix, []).append(message)
        return delivered

    def _negative_controls(self, point: CommitPoint, peer: int,
                           proofs: ProofSet) -> None:
        """Prove the checks are live: a flipped proof bit and a dropped
        import must each yield a verdict."""
        assert self.peers is not None
        commitment = self.peers.records[peer].commitments[
            point.commit_time]
        asked = {prefix: point.sent[peer][prefix]
                 for prefix in proofs.producer_proofs}
        victim = sorted(proofs.producer_proofs)[0]

        original = proofs.producer_proofs[victim]
        flipped = dataclasses.replace(original, proof=dataclasses.replace(
            original.proof, bit=1 - original.proof.bit))
        for tampered in (
                {**proofs.producer_proofs, victim: flipped},
                {p: m for p, m in proofs.producer_proofs.items()
                 if p != victim}):
            fired = bool(self._check(
                peer, commitment,
                dataclasses.replace(proofs, producer_proofs=tampered),
                asked, point.received[peer]).verdicts)
            self.controls_fired += fired
            self.tally.add("negative_controls", 1, 0 if fired else 1,
                           "a tampered proof set passed the checker")

    # -- restart ---------------------------------------------------------

    def cold_open_image(self) -> None:
        """Cold-open a crash image of the live hub's directory: what a
        restart would find had the process died right now.  The image
        must recover to exactly the live log."""
        assert self.runtime is not None
        self.runtime.recorder.log.sync()
        image = self.store_dir + "-image"
        shutil.copytree(self.store_dir, image)
        try:
            self._timed_cold_open(_log_state(self.runtime), image).close()
        finally:
            shutil.rmtree(image)

    def restart(self, keep: bool) -> None:
        """Close the hub and re-open its directory cold, FINAL_OPENS
        times; with ``keep`` the last one goes back on the wire."""
        assert self.runtime is not None
        before = _log_state(self.runtime)
        self._shut_runtime()
        for attempt in range(FINAL_OPENS):
            runtime = self._timed_cold_open(before, self.store_dir)
            if keep and attempt == FINAL_OPENS - 1:
                self._start(runtime)
                self.runtime = runtime
            else:
                runtime.close()

    def _timed_cold_open(self, expected: Tuple[Any, ...],
                         directory: str) -> NodeRuntime:
        opened: List[NodeRuntime] = []

        def cold_open() -> int:
            runtime = self._open_runtime(start=False, directory=directory)
            opened.append(runtime)
            assert runtime.recovery is not None
            return runtime.recovery.stats.records

        self._unit("restart", cold_open, traced=self._traced("restart"))
        recovered = _log_state(opened[0])
        self.tally.add("restarts", 1, 0 if recovered == expected else 1,
                       f"recovered {recovered[0]} entries, expected "
                       f"{expected[0]}, or head/commitments differ")
        return opened[0]

    def _shut_runtime(self) -> None:
        if self.runtime is not None:
            self.log_head = self.runtime.recorder.log.head.hex()
            self.log_length = len(self.runtime.recorder.log)
            self.runtime.transport.stop()
            self.runtime.close()
            self.runtime = None

    # ------------------------------------------------------------------
    # facts the per-layer derivation needs beside the spans

    def _note_facts(self) -> None:
        """Read, before the first hub goes away, what only it knows."""
        if self.tracer is None:
            return
        assert self.runtime is not None
        recorder = self.runtime.recorder
        obs = get_registry()
        self._facts: Dict[str, Any] = {
            "inbox_depth_high_water": int(obs.gauge(
                "runtime_inbox_depth", node=f"as{HUB_ASN}").high_water),
            "reconstruction_cache_hit_ratio":
                self.runtime.node.proofgen.cache_hit_rate,
            "store_entry_bytes": sum(
                len(encode_log_entry(entry)) for entry in recorder.log),
            "store_frame_bytes": obs.total("store_append_bytes_total"),
            "store_records": obs.total("store_records_total"),
        }
        self._final_entries = recorder.mtt_entries(recorder.state)

    def layer_facts(self) -> Dict[str, Any]:
        """Call after :meth:`close` (the pool probe forks, so it runs
        once this process is single-threaded again)."""
        return dict(
            self._facts,
            tcp_cpu=self.tcp_cpu,
            round_hashes=self.round_hashes,
            round_nodes=[c.census_total for c in self.commits[1:]],
            entries_replayed=self.entries_replayed,
            digest_hits=self.digest_hits,
            digest_misses=self.digest_misses,
            obs_series=len(get_registry().metrics()),
            pool=pool_probe(self._final_entries, self.clock))

    # ------------------------------------------------------------------
    # teardown and results

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        try:
            self._shut_runtime()
        finally:
            if self.peers is not None:
                self.peers.stop()
                self.peers = None

    def disk_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.store_dir, name))
                   for name in os.listdir(self.store_dir))

    def remove_store(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.rmtree(self.store_dir + "-image", ignore_errors=True)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        clock = self.clock
        wire = sum(t.bytes_sent + t.bytes_received
                   for t in self.transports)
        # The pipeline number: every timed phase at its typical pace.
        phases = sorted({u.phase for u in clock.units} -
                        {"setup", "probe"})
        pipeline = sum(
            typical_pace(clock.phase_units(phase)) *
            sum(max(1, u.work) for u in clock.phase_units(phase))
            for phase in phases)

        def pace(phase: str) -> float:
            return typical_pace(clock.phase_units(phase))

        return {
            "setup_s": (clock.nominal_total("setup"), "s"),
            "pipeline_s": (pipeline, "s"),
            "ingest_updates_per_s": (1.0 / pace("ingest"), "1/s"),
            "commit_round_ms": (pace("commit") * 1e3, "ms"),
            "audit_proofs_per_s": (1.0 / pace("audit"), "1/s"),
            "restart_entries_per_s": (1.0 / pace("restart"), "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "disk_bytes_per_update":
                (self.disk_bytes() / self.updates_sent, "B"),
            "wire_bytes_per_update": (wire / self.updates_sent, "B"),
            "proof_bytes_per_prefix":
                (self.proof_bytes / max(1, self.proof_prefixes), "B"),
        }


def _spread(count: int, over: int) -> List[int]:
    """``count`` indices spread evenly over ``range(over)``, ends
    included."""
    count = min(count, over)
    if count <= 1:
        return list(range(count))
    return sorted({round(i * (over - 1) / (count - 1))
                   for i in range(count)})


def _log_state(runtime: NodeRuntime) -> Tuple[Any, ...]:
    """What a restart must reproduce: length, head chain and every
    commitment with its (deterministically re-signed) signature."""
    log = runtime.recorder.log
    return (len(log), log.head,
            [(c.commit_time, c.root, c.message.envelope.signature)
             for c in runtime.recorder.commitments])


def _apply(table: Dict[Prefix, Route], update: Update) -> None:
    if update.route is None:
        table.pop(update.prefix, None)
    else:
        table[update.prefix] = update.route


def _sign_burst(signer: Signer, stamp: float,
                burst: Sequence[Update]) -> List[object]:
    asn = signer.asn
    announces = [u for u in burst if u.route is not None]
    route_sigs = dict(zip(
        (id(u) for u in announces),
        signer.sign_batch([route_signature_payload(u.route)
                           for u in announces])))
    payloads = [
        withdraw_payload(asn, HUB_ASN, stamp, u.prefix)
        if u.route is None else
        announce_payload(asn, HUB_ASN, stamp, u.route, None,
                         route_sigs[id(u)])
        for u in burst]
    messages: List[object] = []
    for update, envelope in zip(burst, signer.sign_batch(payloads)):
        if update.route is None:
            messages.append(SpiderWithdraw(
                sender=asn, receiver=HUB_ASN, timestamp=stamp,
                prefix=update.prefix, envelope=envelope))
        else:
            messages.append(SpiderAnnounce(
                sender=asn, receiver=HUB_ASN, timestamp=stamp,
                route=update.route, underlying=None,
                route_sig=route_sigs[id(update)], envelope=envelope))
    return messages
