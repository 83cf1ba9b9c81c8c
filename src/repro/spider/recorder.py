"""The SPIDeR recorder (Section 6.1–6.2).

One recorder runs next to each AS's border routers.  It mirrors the BGP
message flow, re-announces every update through SPIDeR with signatures
and acknowledgments, keeps the tamper-evident log, and periodically
commits to its AS's entire routing state via one MTT root.

The recorder derives everything it commits to from its own
:class:`~repro.spider.checkpoint.RoutingState` mirror — never from the
live speaker — so that the proof generator, replaying the log, arrives at
bit-for-bit the same MTT (Section 6.5).

Everything the recorder knows beside its log is a function of that log,
and :meth:`Recorder._fold` is the one place that computes it: a live
site appends an entry and folds it, a restart folds the entries that
survived, and the two cannot disagree.

The commitment tree persists: the recorder keeps one
:class:`~repro.mtt.tree.Mtt` for its lifetime, marks a prefix dirty
whenever an entry that touches it is folded into the mirror, and each
round recomputes the bits of the dirty prefixes only and edits the tree
in place.  What it cannot keep is the hash pass: every round draws new
randomness from a new seed (§5), so every label changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, \
    Optional, Sequence, Set, Tuple

from ..bgp.messages import Announce, Update
from ..bgp.prefix import Prefix
from ..bgp.route import NULL_ROUTE, Route
from ..core.bits import compute_bits
from ..core.classes import ClassScheme, RouteOrNull
from ..core.promise import Promise
from ..crypto.hashing import constant_time_eq, digest_fields
from ..crypto.keys import Identity, KeyRegistry
from ..crypto.rc4 import Rc4Csprng
from ..crypto.signatures import Signed, Signer
# Imported under the name benchmarks/e2e/layers.py TARGETS wraps here.
from ..mtt.labeling import label_tree_parallel as label_tree_with_workers
from ..mtt.pool import LabelPool
from ..mtt.tree import Mtt
from ..obs.metrics import Counter
from ..obs.registry import ClockLike, get_registry
from .checkpoint import RoutingState, apply_entry, elector_view, \
    take_checkpoint
from .config import SpiderConfig
from .log import EntryKind, LogEntry, LogSink, SpiderLog
from .wire import SpiderAck, SpiderAnnounce, SpiderCommitment, \
    SpiderWithdraw, ack_payload, announce_payload, \
    route_signature_payload, time_bytes, withdraw_payload

if TYPE_CHECKING:
    from ..bgp.speaker import Speaker


@dataclass
class _PendingAnnounce:
    """Outbox entry awaiting batch signing."""

    receiver: int
    timestamp: float
    route: Route
    underlying: Optional[Signed]


@dataclass
class _PendingWithdraw:
    receiver: int
    timestamp: float
    prefix: Prefix


@dataclass
class _PendingAck:
    receiver: int
    timestamp: float
    message_hash: bytes


_PendingItem = object  # union of the three pending kinds

#: Transport callback: (receiver ASN, messages for that receiver, in
#: order).  The batch is the only unit of egress (§6.2's Nagle burst).
Transport = Callable[[int, Sequence[object]], None]
#: Scheduler callback: (delay seconds, thunk).
Scheduler = Callable[[float, Callable[[], None]], None]


class _CpuSection:
    """Adds the seconds one ``with`` block takes to a counter: §7.5's
    getrusage stand-in (the simulator runs every AS inline, so a node's
    sections sum to its compute cost)."""

    __slots__ = ("_counter", "_start")

    def __init__(self, counter: Counter):
        self._counter = counter
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self._counter.inc(time.perf_counter() - self._start)


@dataclass
class CommitmentRecord:
    """What the recorder remembers about one commitment (beyond the log,
    which stores only the seed)."""

    commit_time: float
    root: bytes
    message: SpiderCommitment
    census_total: int


class Recorder:
    """The per-AS SPIDeR recorder."""

    def __init__(self, identity: Identity, registry: KeyRegistry,
                 scheme: ClassScheme, promises: Dict[int, Promise],
                 config: SpiderConfig, clock: ClockLike,
                 transport: Transport,
                 schedule: Optional[Scheduler] = None,
                 master_seed: bytes = b"spider-master",
                 log_store: Optional[LogSink] = None,
                 recovered_entries: Optional[Sequence[LogEntry]] = None):
        self.identity = identity
        self.registry = registry
        self.scheme = scheme
        self.promises = dict(promises)
        self.config = config
        self.clock = clock
        self.transport = transport
        self.schedule = schedule
        self.master_seed = master_seed
        self._obs = get_registry()
        self._cpu_seconds: Dict[str, Counter] = {}
        self.signer = Signer(identity)
        self.alarms: List[str] = []
        self.log = SpiderLog.restore(
            recovered_entries or (),
            retention_seconds=config.retention_seconds, sink=log_store)
        # Derived from the log, down to ``_checkpointed_at``:
        # :meth:`_fold` is the only writer of these.
        self.state = RoutingState()
        #: Prefixes touched since :meth:`_apply_dirty` last brought the
        #: commitment tree (§5.2) up to ``state``.  Only the root ever
        #: leaves that tree — proofs come from the proof generator's
        #: own reconstruction.
        self._dirty: Set[Prefix] = set()
        self._tree = Mtt()
        self.commitments: List[CommitmentRecord] = []
        #: σ_P(r') for each (neighbor, prefix) we imported — the inner
        #: producer signature our own announcements must carry.
        self._import_sigs: Dict[Tuple[int, Prefix], Signed] = {}
        #: The un-ACKed messages (§6.2): message hash → the ``SENT_*``
        #: entry that logged it, which holds the message, its receiver
        #: and the send time.  :meth:`overdue_acks` and the runtime's
        #: delivery service both read this one table.
        self.awaiting_ack: Dict[bytes, LogEntry] = {}
        self._checkpointed_at: Optional[float] = None
        self._outbox: List[_PendingItem] = []
        self._flush_scheduled = False
        #: What the runtime delivery layer listens on to time its
        #: retries (see :mod:`repro.runtime.delivery`).
        self.sent_hooks: List[Callable[[object], None]] = []
        self.ack_hooks: List[Callable[[SpiderAck], None]] = []
        #: The warm shared-memory labeling pool (spawned lazily on the
        #: first multi-worker commitment, reused across rounds; see
        #: repro.mtt.pool).  ``close()`` shuts it down.
        self._label_pool: Optional[LabelPool] = None
        self._adopt_recovery()

    @property
    def asn(self) -> int:
        return self.identity.asn

    # ------------------------------------------------------------------
    # Warm labeling pool lifecycle (see repro.mtt.pool)

    def labeling_pool(self) -> Optional[LabelPool]:
        """The warm labeling pool, spawned lazily; ``None`` when serial.

        One pool of ``commit_workers`` processes serves every commitment
        round and every proof-generator reconstruction.  Its installed
        program holds one tree's shape *and bits*, so it is reused only
        by a round whose diff was empty; any edit of the retained tree,
        and every reconstruction (a tree of its own), re-installs (see
        DESIGN.md §2 for what that costs).  A pool that broke (worker
        death mid-round) is discarded here and replaced, so one crashed
        worker costs exactly one serial-fallback round.
        """
        if self.config.commit_workers <= 1:
            return None
        pool = self._label_pool
        if pool is not None and pool.broken:
            pool.close()
            pool = None
        if pool is None:
            pool = LabelPool(self.config.commit_workers)
            self._label_pool = pool
        return pool

    def close(self) -> None:
        """Release held resources (the warm labeling pool); idempotent.

        The recorder stays usable after ``close()`` — a later
        commitment simply respawns the pool — but callers shutting a
        node down should not rely on that.
        """
        if self._label_pool is not None:
            self._label_pool.close()
            self._label_pool = None

    # ------------------------------------------------------------------
    # Observation hooks

    def add_sent_hook(self, hook: Callable[[object], None]) -> None:
        """Called, after transmission, with every message that newly
        entered :attr:`awaiting_ack`."""
        self.sent_hooks.append(hook)

    def add_ack_hook(self, hook: Callable[["SpiderAck"], None]) -> None:
        """Called with every valid ACK that cleared a message from
        :attr:`awaiting_ack`."""
        self.ack_hooks.append(hook)

    # ------------------------------------------------------------------
    # Instrumented primitives

    def _cpu(self, section: str) -> _CpuSection:
        """Time a block into ``cpu_seconds_total{node, section}``:
        ``handling`` wraps all message processing, its nested
        ``signatures`` work included; ``mtt`` is the commitment tree."""
        counter = self._cpu_seconds.get(section)
        if counter is None:
            counter = self._cpu_seconds[section] = self._obs.counter(
                "cpu_seconds_total", node=f"as{self.asn}", section=section)
        return _CpuSection(counter)

    def alarm(self, reason: str, text: str) -> None:
        """Raise one out-of-band alarm (Section 6.2) and count it under
        ``spider_alarms_total{reason=...}``."""
        self.alarms.append(text)
        self._obs.counter("spider_alarms_total", node=f"as{self.asn}",
                          reason=reason).inc()

    def _adopt_recovery(self) -> None:
        """A restart is the live path run again, minus the appends:
        the entries that survived (none, on a first start) go through
        the same fold, in log order."""
        for entry in self.log:
            self._fold(entry)

    def _fold(self, entry: LogEntry) -> None:
        """Fold one logged entry into everything derived from the log.

        The only writer of the routing mirror and its dirty marks, the
        import signatures, the un-ACKed table, the commitment records
        and the checkpoint cursor — called on the entry a live site has
        just appended, and on every surviving entry at a restart
        (§6.5: state is a pure function of the log, plus the
        deterministic secrets a commitment record re-derives from).
        """
        self._mark_dirty(apply_entry(self.state, self.asn, entry))
        kind, message = entry.kind, entry.payload
        if kind is EntryKind.RECV_ANNOUNCE:
            assert isinstance(message, SpiderAnnounce)
            # The sender's inner signature: when we export a route
            # derived from this import, it becomes our σ_P(r').
            self._import_sigs[(message.sender, message.prefix)] = \
                message.route_sig
        elif kind in (EntryKind.SENT_ANNOUNCE, EntryKind.SENT_WITHDRAW):
            assert isinstance(message, (SpiderAnnounce, SpiderWithdraw))
            self.awaiting_ack[message.message_hash()] = entry
        elif kind is EntryKind.RECV_ACK:
            assert isinstance(message, SpiderAck)
            self.awaiting_ack.pop(message.message_hash, None)
        elif kind is EntryKind.COMMITMENT:
            self.commitments.append(self._commitment_record(entry))
        elif kind is EntryKind.CHECKPOINT:
            self._checkpointed_at = entry.timestamp

    def _commitment_record(self, entry: LogEntry) -> CommitmentRecord:
        """The record of one COMMITMENT entry.

        The log stores the seed and the root; the broadcast message is
        signed here — once per commitment, live or recovered, and
        deterministically, so a recovered record carries the bytes its
        neighbours hold.  A logged seed that does not derive from our
        master secret means the log is not this recorder's.  The census
        is not logged: a record says 0 until :meth:`make_commitment`,
        which has the tree, fills it in.
        """
        payload = entry.payload
        assert isinstance(payload, dict)
        if not constant_time_eq(payload["seed"],
                                self.commitment_seed(entry.timestamp)):
            self.alarm("recovered_seed_mismatch",
                       f"logged commitment seed at t={entry.timestamp} "
                       "does not derive from this master secret")
        with self._cpu("signatures"):
            message = SpiderCommitment.make(self.signer, entry.timestamp,
                                            payload["root"])
        return CommitmentRecord(commit_time=entry.timestamp,
                                root=payload["root"], message=message,
                                census_total=0)

    def _mark_dirty(self, prefixes: Iterable[Prefix]) -> None:
        self._dirty.update(prefixes)

    # ------------------------------------------------------------------
    # Mirroring the BGP flow (hooked to Speaker.on_send)

    def mirror_sent_update(self, update: Update) -> None:
        """Re-announce one of our AS's BGP UPDATEs through SPIDeR."""
        with self._cpu("handling"):
            self._mirror_sent_update(update)

    def _mirror_sent_update(self, update: Update) -> None:
        now = self.clock.now
        if isinstance(update, Announce):
            item = _PendingAnnounce(
                receiver=update.receiver, timestamp=now,
                route=update.route,
                underlying=self._underlying_for(update.route))
        else:
            item = _PendingWithdraw(receiver=update.receiver,
                                    timestamp=now, prefix=update.prefix)
        self._enqueue(item)

    # ------------------------------------------------------------------
    # Outbox: Nagle-style signature batching (Section 6.2)

    def _enqueue(self, item: "_PendingItem") -> None:
        """Queue an outgoing message; with a scheduler and a positive
        nagle delay, bursts are signed in batches of ``max_batch``."""
        self._outbox.append(item)
        if self.schedule is None or self.config.nagle_delay <= 0:
            self.flush_outbox()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(self.config.nagle_delay, self._timed_flush)

    def _timed_flush(self) -> None:
        self._flush_scheduled = False
        with self._cpu("handling"):
            self.flush_outbox()

    def flush_outbox(self) -> int:
        """Sign, log, and transmit everything queued; returns the count.

        The outbox is grouped per receiver (a batch travels to one
        neighbor as a unit, amortizing its shared signature bytes); two
        batch signatures then cover each group: one over the inner route
        signatures (``σ_E(r)``), one over the message envelopes.
        """
        if not self._outbox:
            return 0
        pending, self._outbox = self._outbox, []
        by_receiver: Dict[int, List[_PendingItem]] = {}
        for item in pending:
            by_receiver.setdefault(item.receiver, []).append(item)
        flushed = 0
        for receiver in sorted(by_receiver):
            items = by_receiver[receiver]
            for start in range(0, len(items), self.config.max_batch):
                chunk = items[start:start + self.config.max_batch]
                flushed += self._flush_chunk(receiver, chunk)
        return flushed

    def _flush_chunk(self, receiver: int,
                     chunk: List["_PendingItem"]) -> int:
        with self._cpu("signatures"):
            announces = [i for i in chunk
                         if isinstance(i, _PendingAnnounce)]
            route_sigs = self.signer.sign_batch(
                [route_signature_payload(a.route) for a in announces])
            sig_of = {id(a): s for a, s in zip(announces, route_sigs)}

            envelope_payloads: List[bytes] = []
            for item in chunk:
                if isinstance(item, _PendingAnnounce):
                    envelope_payloads.append(announce_payload(
                        self.asn, item.receiver, item.timestamp,
                        item.route, item.underlying, sig_of[id(item)]))
                elif isinstance(item, _PendingWithdraw):
                    envelope_payloads.append(withdraw_payload(
                        self.asn, item.receiver, item.timestamp,
                        item.prefix))
                else:
                    envelope_payloads.append(ack_payload(
                        self.asn, item.receiver, item.timestamp,
                        item.message_hash))
            envelopes = self.signer.sign_batch(envelope_payloads)

        messages: List[object] = []
        newly_awaited: List[object] = []
        for item, envelope in zip(chunk, envelopes):
            if isinstance(item, _PendingAnnounce):
                message: object = SpiderAnnounce(
                    sender=self.asn, receiver=item.receiver,
                    timestamp=item.timestamp, route=item.route,
                    underlying=item.underlying,
                    route_sig=sig_of[id(item)], envelope=envelope)
                kind = EntryKind.SENT_ANNOUNCE
            elif isinstance(item, _PendingWithdraw):
                message = SpiderWithdraw(
                    sender=self.asn, receiver=item.receiver,
                    timestamp=item.timestamp, prefix=item.prefix,
                    envelope=envelope)
                kind = EntryKind.SENT_WITHDRAW
            else:
                message = SpiderAck(
                    acker=self.asn, sender=item.receiver,
                    timestamp=item.timestamp,
                    message_hash=item.message_hash, envelope=envelope)
                kind = EntryKind.SENT_ACK
            awaited = len(self.awaiting_ack)
            self._fold(self.log.append(item.timestamp, kind, message))
            if len(self.awaiting_ack) > awaited:
                newly_awaited.append(message)
            messages.append(message)
        # Group-commit boundary: everything logged so far — this chunk
        # and, on an inline flush, the RECV_* entries it acknowledges —
        # is durable before any of it is on the wire: a peer must never
        # hold a receipt this node could not answer for after a crash.
        self.log.sync()
        self.transport(receiver, messages)
        for message in newly_awaited:
            for hook in self.sent_hooks:
                hook(message)
        return len(chunk)

    def _underlying_for(self, route: Route) -> Optional[Signed]:
        """The σ_P(r') proving our exported route rests on a real import.

        Locally originated routes (our AS first and last on the path)
        have no underlying import.
        """
        if len(route.as_path) <= 1:
            return None
        return self._import_sigs.get((route.neighbor, route.prefix))

    # ------------------------------------------------------------------
    # Receiving SPIDeR messages from neighbor recorders

    def receive(self, message: object) -> None:
        with self._cpu("handling"):
            self._receive(message)

    def _receive(self, message: object) -> None:
        if isinstance(message, (SpiderAnnounce, SpiderWithdraw)):
            self._receive_update(message)
        elif isinstance(message, SpiderAck):
            self._receive_ack(message)
        elif isinstance(message, SpiderCommitment):
            pass  # stored by the checker side (node.py wires this)
        else:
            self.alarm("unknown_message", f"unknown message type "
                       f"{type(message).__name__}")

    def _timestamp_plausible(self, timestamp: float) -> bool:
        return abs(timestamp - self.clock.now) <= \
            max(self.config.ack_timeout, self.config.delta)

    def _receive_update(
            self, message: SpiderAnnounce | SpiderWithdraw) -> None:
        """An announcement or withdrawal takes effect — is logged,
        folded and acknowledged — iff it is validly signed, addressed
        to us and plausibly timed (§6.2, §6.4)."""
        kind, what = (EntryKind.RECV_ANNOUNCE, "announce") \
            if isinstance(message, SpiderAnnounce) \
            else (EntryKind.RECV_WITHDRAW, "withdraw")
        with self._cpu("signatures"):
            ok = message.valid(self.registry)
        if not ok or message.receiver != self.asn:
            self.alarm(f"invalid_{what}",
                       f"invalid {what} from AS{message.sender}")
            return
        if not self._timestamp_plausible(message.timestamp):
            self.alarm("stale_timestamp",
                       f"stale timestamp from AS{message.sender}")
            return
        self._fold(self.log.append(self.clock.now, kind, message))
        self._send_ack(message.sender, message.message_hash())

    def commitment_valid(self, message: SpiderCommitment) -> bool:
        """Whether a neighbour's commitment is signed by its elector.

        An invalid one raises the ``invalid_commitment`` alarm: anyone
        can put a frame on the wire, and a forged root stored next to
        the genuine one would frame an honest elector."""
        with self._cpu("signatures"):
            ok = message.valid(self.registry)
        if not ok:
            self.alarm("invalid_commitment",
                       f"invalid commitment from AS{message.elector}")
        return ok

    def _send_ack(self, to: int, message_hash: bytes) -> None:
        self._enqueue(_PendingAck(receiver=to, timestamp=self.clock.now,
                                  message_hash=message_hash))

    def _receive_ack(self, ack: SpiderAck) -> None:
        with self._cpu("signatures"):
            ok = ack.valid(self.registry)
        if not ok:
            self.alarm("invalid_ack", f"invalid ack from AS{ack.acker}")
            return
        awaited = len(self.awaiting_ack)
        self._fold(self.log.append(self.clock.now, EntryKind.RECV_ACK,
                                   ack))
        if len(self.awaiting_ack) < awaited:
            for hook in self.ack_hooks:
                hook(ack)

    def overdue_acks(self) -> List[Tuple[bytes, int]]:
        """Messages unacknowledged past T_max — each one is an alarm that
        must be handled out of band (Section 6.2)."""
        now = self.clock.now
        overdue: List[Tuple[bytes, int]] = []
        for message_hash, entry in self.awaiting_ack.items():
            message = entry.payload
            assert isinstance(message, (SpiderAnnounce, SpiderWithdraw))
            if now - entry.timestamp > self.config.ack_timeout:
                overdue.append((message_hash, message.receiver))
        return overdue

    # ------------------------------------------------------------------
    # Commitments (Section 5.3 / 6.1)

    def commitment_seed(self, commit_time: float) -> bytes:
        """The per-commitment CSPRNG seed.

        :spiderlint-contract: source(rc4-seed)

        Derived deterministically from the recorder's master secret so a
        simulation replays identically; only the 20-byte seed is logged,
        reproducing the paper's tiny per-commitment storage cost.
        """
        return digest_fields(self.master_seed, time_bytes(commit_time))

    def mtt_entries(
            self, state: RoutingState
    ) -> Dict[Prefix, Tuple[int, ...]]:
        """The per-prefix VPref input bits for a routing state, from
        scratch — what a reconstruction builds its tree from, and what
        the retained tree must equal after every round."""
        promise_list = list(self.promises.values())
        return {prefix: self._prefix_bits(state, prefix, promise_list)
                for prefix in state.known_prefixes()}

    def _prefix_bits(self, state: RoutingState, prefix: Prefix,
                     promise_list: List[Promise]) -> Tuple[int, ...]:
        inputs: List[RouteOrNull] = [
            table[prefix] for table in state.imports.values()
            if prefix in table
        ]
        return compute_bits(self.scheme, inputs,
                            self._chosen_for(state, prefix), promise_list)

    def _chosen_for(self, state: RoutingState,
                    prefix: Prefix) -> RouteOrNull:
        """The elector's choice ``e``, derived from log-visible exports.

        Every export is either e or ⊥; the first non-null export (by
        neighbor number) therefore identifies e.  All-⊥ exports leave e
        unobservable, and ⊥ is the conservative value.  The export path
        carries our own prepend, which is stripped to recover e.
        """
        for neighbor in sorted(state.exports):
            route = state.exports[neighbor].get(prefix)
            if route is not None:
                return elector_view(route, self.asn)
        return NULL_ROUTE

    def _apply_dirty(self) -> None:
        """Bring the retained tree up to ``self.state``.

        Only prefixes an entry touched since the last round can differ,
        and for each the state says which edit is owed: bits rewritten
        (still known, already in the tree), inserted (known, new) or
        removed (no route left anywhere).  Marks are cleared once every
        edit is in.  An edit order does not exist: M(P, ε) is unique,
        so the tree equals ``Mtt.build(self.mtt_entries(self.state))``.
        """
        tree, state = self._tree, self.state
        promise_list = list(self.promises.values())
        rewritten = inserted = removed = 0
        try:
            for prefix in self._dirty:
                present = tree.prefix_node(prefix) is not None
                if state.knows(prefix):
                    bits = self._prefix_bits(state, prefix, promise_list)
                    if present:
                        tree.set_bits(prefix, bits)
                        rewritten += 1
                    else:
                        tree.insert(prefix, bits)
                        inserted += 1
                elif present:
                    tree.remove(prefix)
                    removed += 1
        except Exception:
            # Fail closed: a half-applied diff mirrors no state, so the
            # next round starts from the empty tree with the whole
            # table dirty — the from-scratch build.
            self._tree = Mtt()
            self._dirty = state.known_prefixes()
            raise
        self._obs.histogram("commitment_dirty_prefixes").observe(
            len(self._dirty))
        self._dirty.clear()
        for op, count in (("set_bits", rewritten), ("insert", inserted),
                          ("remove", removed)):
            self._obs.counter("mtt_tree_edits_total", op=op).inc(count)

    def make_commitment(self) -> CommitmentRecord:
        """Update the retained tree, relabel it under this round's
        seed, then log, sign, and broadcast the root."""
        self.flush_outbox()  # the commitment must cover queued messages
        commit_time = self.clock.now
        seed = self.commitment_seed(commit_time)
        with self._obs.span("commitment", self.clock,
                            node=f"as{self.asn}"):
            with self._cpu("mtt"):
                self._apply_dirty()
                # materialize=False: only the root leaves this tree;
                # proofs later come from a fresh §6.5 reconstruction
                # in the proof generator, on a tree of its own.
                report = label_tree_with_workers(
                    self._tree, Rc4Csprng(seed),
                    workers=self.config.commit_workers,
                    pool=self.labeling_pool(), materialize=False)
            self._fold(self.log.append(
                commit_time, EntryKind.COMMITMENT,
                {"seed": seed, "root": report.root_label}))
        record = self.commitments[-1]
        record.census_total = self._tree.census().total
        self._maybe_checkpoint(commit_time)
        # The seed and any checkpoint must be durable before the root
        # is broadcast: a post-crash recorder must be able to answer
        # verification requests for every commitment it published.
        self.log.sync()
        for neighbor in self._all_neighbors():
            self.transport(neighbor, [record.message])
        return record

    def _maybe_checkpoint(self, now: float) -> None:
        if self._checkpointed_at is None or \
                now - self._checkpointed_at >= \
                self.config.checkpoint_interval:
            self._fold(take_checkpoint(self.log, now, self.state))

    def _all_neighbors(self) -> List[int]:
        neighbors: Set[int] = set(self.promises)
        neighbors.update(self.state.imports)
        neighbors.update(self.state.exports)
        neighbors.discard(self.asn)
        return sorted(neighbors)

    # ------------------------------------------------------------------
    # Consistency check (Section 6.2, last paragraph)

    def mirror_consistent(self, speaker: "Speaker") -> bool:
        """Do the signed SPIDeR announcements match the BGP state?

        Compares our import mirror with the speaker's raw Adj-RIB-In; a
        mismatch means some neighbor's recorder is announcing different
        routes via SPIDeR than its routers do via BGP.
        """
        for neighbor, table in self.state.imports.items():
            for prefix, route in table.items():
                bgp_route = speaker.received_from(neighbor, prefix)
                if bgp_route is None or \
                        bgp_route.to_bytes() != route.to_bytes():
                    return False
        return True
