"""The recorder's commitment tree persists; its roots must not know.

One ``Mtt`` lives as long as the recorder and follows the routing
mirror by diff (``Recorder._apply_dirty``).  Whatever the history, every
commitment must be the root a from-scratch ``Mtt.build`` of
``mtt_entries(state)`` labels to under that round's seed, and every
commitment must reconstruct from the log (§6.5) — serially and on the
pool, across a crash and a recovery, after a trim, and with the
recorder-level faults installed.
"""

import pytest
from hypothesis import given, settings

from repro.bgp.messages import Announce, Withdraw
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core import bits as bits_module
from repro.core.promise import total_order_promise
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.rc4 import Rc4Csprng
from repro.crypto.signatures import Signer
from repro.faults.injector import install_equivocation, \
    install_inbound_drop
from repro.mtt.labeling import label_tree
from repro.mtt.tree import Mtt
from repro.netreview.node import NetReviewRecorder
from repro.obs.registry import Registry, use_registry
from repro.runtime.node_runtime import NodeRuntime, StepClock
from repro.runtime.transport import LoopbackHub
from repro.spider import recorder as recorder_module
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind
from repro.spider.node import evaluation_scheme
from repro.spider.proofgen import ProofGenerator
from repro.spider.recorder import Recorder
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw
from repro.store import SegmentedLogStore
from tests.strategies import recorder_histories

ELECTOR, NEIGHBORS = 1, (2, 3)
SCHEME = evaluation_scheme(5)
P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


#: Retention short enough for a history's ``("trim",)`` steps to bite.
TRIMMING = SpiderConfig(retention_seconds=3, checkpoint_interval=2)


def assert_restart_lost_nothing(recovered, live):
    """Everything ``live`` derived from its log, ``recovered`` — built
    from that log alone — derives again, byte for byte.

    A trim is not an entry, so what the live recorder derived from
    entries a trim has since dropped stays with it until it restarts:
    the comparisons below are over the log as it stands.
    """
    log = list(recovered.log)
    assert log == list(live.log)
    assert recovered.state == live.state
    assert recovered._checkpointed_at == live._checkpointed_at

    # Hashes, send times and receivers: the table's values are the
    # SENT_* entries themselves.
    first = log[0].index if log else 0
    assert recovered.awaiting_ack == {
        message_hash: entry
        for message_hash, entry in live.awaiting_ack.items()
        if entry.index >= first}
    assert recovered.overdue_acks() == [
        overdue for overdue in live.overdue_acks()
        if overdue[0] in recovered.awaiting_ack]

    def records(recorder):
        return [(r.commit_time, r.root, r.message.envelope.signature)
                for r in recorder.commitments]
    logged = sum(e.kind is EntryKind.COMMITMENT for e in log)
    assert len(recovered.commitments) == logged
    assert records(recovered) == records(live)[
        len(live.commitments) - logged:]
    # The census is not logged (documented: recovered records say 0).
    assert {r.census_total for r in recovered.commitments} <= {0}

    # The one thing a restart loses (DESIGN.md §3f): a checkpoint
    # carries routes, not the σ_P that came with them, so the signature
    # of an import whose RECV_ANNOUNCE a trim dropped is gone.
    still_logged = {(e.payload.sender, e.payload.prefix) for e in log
                    if e.kind is EntryKind.RECV_ANNOUNCE}
    assert recovered._import_sigs == {
        key: sig for key, sig in live._import_sigs.items()
        if key in still_logged}


class World:
    """One recorder under test and the neighbours that talk to it.

    ``install`` is applied to every recorder built — a fault rebinds
    methods on one instance, so a restarted recorder needs it again.
    """

    def __init__(self, config=SpiderConfig(), recorder_class=Recorder,
                 install=None):
        self.registry = KeyRegistry()
        self.identity = make_identity(ELECTOR, registry=self.registry,
                                      bits=512, seed=700)
        self.peers = {
            n: Signer(make_identity(n, registry=self.registry, bits=512,
                                    seed=700 + n))
            for n in NEIGHBORS}
        self.config = config
        self.recorder_class = recorder_class
        self.install = install
        self.clock = StepClock(1000.0)
        self.sent = []
        self.recorder = self.build()

    def build(self, **kwargs):
        recorder = self.recorder_class(
            identity=self.identity, registry=self.registry,
            scheme=SCHEME,
            promises={n: total_order_promise(SCHEME)
                      for n in NEIGHBORS},
            config=self.config, clock=self.clock,
            transport=lambda receiver, messages:
            self.sent.extend(messages), **kwargs)
        if self.install is not None:
            self.install(recorder)
        return recorder

    def restart(self):
        """Crash: everything but the log is lost, and everything else
        comes back from it."""
        live = self.recorder
        live.close()
        self.recorder = self.build(recovered_entries=list(live.log))
        assert_restart_lost_nothing(self.recorder, live)

    def tick(self):
        self.clock.advance_to(self.clock.now + 1.0)

    def announce(self, neighbor, prefix, tail=()):
        self.recorder.receive(SpiderAnnounce.make(
            self.peers[neighbor], receiver=ELECTOR,
            timestamp=self.clock.now,
            route=Route(prefix=prefix, as_path=(neighbor, *tail),
                        neighbor=neighbor),
            underlying=None))

    def withdraw(self, neighbor, prefix):
        self.recorder.receive(SpiderWithdraw.make(
            self.peers[neighbor], receiver=ELECTOR,
            timestamp=self.clock.now, prefix=prefix))

    def export(self, neighbor, prefix, tail=()):
        self.recorder.mirror_sent_update(Announce(
            sender=ELECTOR, receiver=neighbor,
            route=Route(prefix=prefix, as_path=(ELECTOR, *tail),
                        neighbor=tail[0] if tail else ELECTOR)))

    def ack_oldest(self):
        """The ACK for the message that has waited longest, if any."""
        for message_hash, entry in self.recorder.awaiting_ack.items():
            self.recorder.receive(SpiderAck.make(
                self.peers[entry.payload.receiver], sender=ELECTOR,
                timestamp=self.clock.now, message_hash=message_hash))
            return

    def commit(self):
        """One round; returns the record after checking its root
        against the from-scratch tree of the same state."""
        self.tick()
        recorder = self.recorder
        record = recorder.make_commitment()
        fresh = Mtt.build(recorder.mtt_entries(recorder.state))
        expected = label_tree(fresh, Rc4Csprng(
            recorder.commitment_seed(record.commit_time)))
        assert record.root == expected.root_label
        assert record.census_total == fresh.census().total
        self.tick()
        return record

    def play(self, steps):
        for step in steps:
            kind = step[0]
            if kind == "announce":
                self.announce(*step[1:])
            elif kind == "withdraw":
                self.withdraw(*step[1:])
            elif kind == "export":
                self.export(*step[1:])
            elif kind == "unexport":
                self.recorder.mirror_sent_update(Withdraw(
                    sender=ELECTOR, receiver=step[1], prefix=step[2]))
            elif kind == "ack":
                self.ack_oldest()
            elif kind == "commit":
                self.commit()
            elif kind == "trim":
                self.recorder.log.trim(now=self.clock.now)
            else:
                assert kind == "restart"
                self.restart()

    def finish(self, since=0.0):
        """Every commitment in the log replays to its own root (a
        trimmed one is past retention)."""
        recorder = self.recorder
        proofgen = ProofGenerator(recorder)
        try:
            for record in recorder.commitments:
                if record.commit_time < since or \
                        recorder.log.commitment_at(
                            record.commit_time) is None:
                    continue
                assert proofgen.reconstruct(record.commit_time).root == \
                    record.root
        finally:
            self.recorder.close()


class TestEveryHistory:
    """At every ``("restart",)`` step the recorder built from the log
    alone must equal the one it replaces (``World.restart``)."""

    @settings(max_examples=25, deadline=None)
    @given(recorder_histories())
    def test_roots_equal_the_from_scratch_build(self, steps):
        world = World()
        world.play(steps)
        world.finish()

    @settings(max_examples=40, deadline=None)
    @given(recorder_histories(restarts=True))
    def test_across_crash_and_recovery(self, steps):
        world = World()
        world.play(steps)
        world.finish()

    @settings(max_examples=60, deadline=None)
    @given(recorder_histories(restarts=True, max_steps=24))
    def test_across_trim_crash_and_recovery(self, steps):
        world = World(TRIMMING)
        world.play(steps)
        world.finish()

    @settings(max_examples=6, deadline=None)
    @given(recorder_histories(restarts=True, max_steps=10))
    def test_on_the_pool(self, steps):
        """commit_workers=2 commits to the roots the serial oracle
        computes: no round runs an installed program that has gone
        stale."""
        world = World(SpiderConfig(commit_workers=2))
        try:
            world.play(steps)
        finally:
            world.finish()

    @settings(max_examples=10, deadline=None)
    @given(recorder_histories(restarts=True))
    def test_with_inbound_drop_installed(self, steps):
        """Dropped messages are never logged, so never folded, so never
        dirty: the tree follows the (poorer) state."""
        dropped = []
        world = World(install=lambda recorder: dropped.append(
            install_inbound_drop(recorder, NEIGHBORS[0])))
        world.play(steps)
        assert sum(map(len, dropped)) == sum(
            step[0] in ("announce", "withdraw") and
            step[1] == NEIGHBORS[0] for step in steps)
        assert NEIGHBORS[0] not in world.recorder.state.imports
        world.finish()

    @settings(max_examples=10, deadline=None)
    @given(recorder_histories(restarts=True))
    def test_with_equivocation_installed(self, steps):
        world = World(install=lambda recorder: install_equivocation(
            recorder, {NEIGHBORS[1]}))
        world.play(steps)
        world.finish()


class TestRestartIsTheLivePath:
    """The divergences between the live writes and the recovery ladder
    that the single fold closed, one explicit case each."""

    def test_unacked_exports_survive_and_a_late_ack_clears_them(self):
        world = World()
        world.announce(2, P)
        world.export(3, P, (2,))
        world.export(3, Q)
        world.ack_oldest()
        (message_hash, entry), = world.recorder.awaiting_ack.items()
        assert entry.kind is EntryKind.SENT_ANNOUNCE
        assert entry.payload.prefix == Q
        world.restart()
        assert list(world.recorder.awaiting_ack) == [message_hash]
        assert world.recorder.awaiting_ack[message_hash] is entry
        world.clock.advance_to(
            world.clock.now + world.config.ack_timeout + 1.0)
        assert world.recorder.overdue_acks() == [(message_hash, 3)]
        world.ack_oldest()  # late, and after the restart
        assert world.recorder.awaiting_ack == {}
        assert world.recorder.overdue_acks() == []

    def test_a_live_checkpoint_is_accounted_like_a_recovered_one(self):
        world = World()
        world.announce(2, P)
        world.commit()
        live = world.recorder.log.bytes_by_kind()
        assert live["checkpoints"] == world.recorder.log.total_bytes(
            EntryKind.CHECKPOINT) > 0
        world.restart()
        assert world.recorder.log.bytes_by_kind() == live

    def test_the_account_follows_every_trim(self):
        """Three live rounds under short retention: the account after a
        trim is the account before it minus what the trim reports, per
        kind, and it is the log's own size."""
        world = World(TRIMMING)
        trimmed = 0
        for round_number in range(3):
            world.announce(2, Prefix.parse(f"10.{round_number}.0.0/16"))
            world.export(3, Prefix.parse(f"10.{round_number}.0.0/16"),
                         (2,))
            world.commit()
            world.tick()
            log = world.recorder.log
            before = log.bytes_by_kind()
            report = log.trim(now=world.clock.now)
            trimmed += report.entries
            after = log.bytes_by_kind()
            assert after == {
                kind: nbytes - report.bytes_by_kind.get(kind, 0)
                for kind, nbytes in before.items()
                if nbytes > report.bytes_by_kind.get(kind, 0)}
            assert after == {
                "log": log.total_bytes() - log.total_bytes(
                    EntryKind.COMMITMENT, EntryKind.CHECKPOINT),
                "commitments": log.total_bytes(EntryKind.COMMITMENT),
                "checkpoints": log.total_bytes(EntryKind.CHECKPOINT)}
        assert trimmed
        world.finish()

    def test_what_a_restart_after_a_trim_does_lose(self):
        """DESIGN.md §3f: a checkpoint carries the imported route, not
        the σ_P that came with it, so an export derived from an import
        that survives only inside a checkpoint goes out without its
        ``underlying`` until the neighbour re-announces."""
        world = World(TRIMMING)
        world.announce(2, P)
        for _ in range(3):
            world.commit()
        assert world.recorder.log.trim(now=world.clock.now).entries
        assert EntryKind.RECV_ANNOUNCE not in {
            e.kind for e in world.recorder.log}
        world.export(3, P, (2,))
        assert world.sent[-1].underlying is not None
        world.restart()
        assert world.recorder.state.import_route(2, P) is not None
        world.export(3, P, (2, 4000))
        assert world.sent[-1].underlying is None
        world.announce(2, P)
        world.export(3, P, (2,))
        assert world.sent[-1].underlying is not None

    def test_netreview_epochs_recover_unsigned_and_unalarmed(self):
        world = World(recorder_class=NetReviewRecorder)
        world.announce(2, P)
        world.tick()
        world.recorder.make_commitment()
        live = world.recorder
        world.recorder = world.build(recovered_entries=list(live.log))
        assert world.recorder.commitments == live.commitments
        assert world.recorder.alarms == []
        assert world.recorder.state == live.state
        assert world.recorder._checkpointed_at == live._checkpointed_at
        assert world.recorder.log.bytes_by_kind() == \
            live.log.bytes_by_kind()


class TestStaleProgramHazard:
    """The pool's installed program holds the bits it was installed
    with; a round that only rewrote bits keeps the schedule object, so
    without the edit version in the key it would commit to the
    previous bits."""

    def test_pooled_rounds_after_each_kind_of_edit(self):
        with use_registry(Registry()) as registry:
            world = World(SpiderConfig(commit_workers=2))
            try:
                world.announce(2, P)
                world.announce(2, Q, (4000,))
                world.commit()
                installs = [registry.total("mtt_pool_installs_total")]
                world.commit()  # empty diff: the program is current
                installs.append(
                    registry.total("mtt_pool_installs_total"))
                world.announce(3, P, (4000, 4001, 4002))  # bits only
                world.commit()
                installs.append(
                    registry.total("mtt_pool_installs_total"))
                world.withdraw(2, Q)  # remove
                world.announce(3, Prefix.parse("10.0.0.0/8"))  # insert
                world.commit()
                installs.append(
                    registry.total("mtt_pool_installs_total"))
                assert installs == [1, 1, 2, 3]
                assert registry.total("mtt_labelings_total",
                                      mode="process") == 4
            finally:
                world.finish()


class TestFailClosed:
    def test_a_raise_mid_apply_costs_a_rebuild_not_a_wrong_root(
            self, monkeypatch):
        world = World()
        for i in range(6):
            world.announce(2, Prefix.parse(f"10.{i}.0.0/16"))
        world.commit()
        for i in range(4, 9):
            world.announce(3, Prefix.parse(f"10.{i}.0.0/16"), (4000,))
        world.withdraw(2, Prefix.parse("10.0.0.0/16"))
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return bits_module.compute_bits(*args, **kwargs)

        monkeypatch.setattr(recorder_module, "compute_bits",
                            failing_third)
        with pytest.raises(RuntimeError, match="injected"):
            world.recorder.make_commitment()
        monkeypatch.undo()
        assert not world.recorder.commitments[1:]
        world.commit()  # checked against the from-scratch build
        world.finish()


class TestRoundExplainsItself:
    def test_diff_size_and_schedule_survival_are_counted(self):
        with use_registry(Registry()) as registry:
            world = World()

            def edits():
                return {op: registry.total("mtt_tree_edits_total", op=op)
                        for op in ("set_bits", "insert", "remove")}

            world.announce(2, P)
            world.announce(2, Q)
            world.commit()
            assert edits() == {"set_bits": 0, "insert": 2, "remove": 0}
            builds = registry.total("mtt_schedule_builds_total")
            world.announce(3, P, (4000,))
            world.announce(2, P, (4001, 4002))
            world.commit()
            assert edits() == {"set_bits": 1, "insert": 2, "remove": 0}
            # The oracle in commit() builds one schedule per round for
            # its own tree; the retained tree built none.
            assert registry.total("mtt_schedule_builds_total") == \
                builds + 1
            world.withdraw(2, Q)
            world.commit()
            assert edits() == {"set_bits": 1, "insert": 2, "remove": 1}
            assert registry.total("mtt_schedule_builds_total") == \
                builds + 3
            dirty = [m for m in registry.metrics()
                     if m.name == "commitment_dirty_prefixes"]
            assert [(m.labels, m.count, m.sum) for m in dirty] == \
                [((), 3, 4.0)]
            world.finish()

    def test_netreview_recorder_keeps_no_marks(self):
        world = World(recorder_class=NetReviewRecorder)
        world.announce(2, P)
        world.withdraw(2, P)
        world.announce(3, Q)
        world.recorder.make_commitment()
        assert world.recorder.state.known_prefixes() == {Q}
        assert world.recorder._dirty == set()


class TestRecoveryAfterTrim:
    """A trimmed log begins at a checkpoint; recovery must load it
    (``replay`` always did), or the recovered recorder commits to a
    smaller table than the one its own log reconstructs."""

    CONFIG = SpiderConfig(retention_seconds=100, checkpoint_interval=50)

    def test_in_memory(self):
        world = World(self.CONFIG)
        world.announce(2, P)
        world.commit()
        world.clock.advance_to(1200.0)
        world.announce(2, Q)
        world.commit()
        live = world.recorder
        live.log.trim(now=1250.0)
        assert [e.kind for e in live.log][0] is EntryKind.CHECKPOINT
        assert EntryKind.RECV_ANNOUNCE in [e.kind for e in live.log]
        world.restart()
        assert world.recorder.state.known_prefixes() == {P, Q} == \
            live.state.known_prefixes()
        world.clock.advance_to(1300.0)  # one time, so one seed
        assert world.recorder.make_commitment().root == \
            live.make_commitment().root
        world.finish()

    def test_through_the_store(self, tmp_path):
        """SegmentedLogStore.trim drops whole segments only, so entries
        older than the checkpoint survive in front of it on disk; the
        checkpoint still replaces the state they add up to."""
        store_dir = str(tmp_path / "store")
        world = World(self.CONFIG)
        store = SegmentedLogStore(store_dir, fsync="always",
                                  segment_bytes=1024)
        world.recorder = world.build(
            log_store=store, master_seed=b"spider-runtime-%d" % ELECTOR)
        world.announce(2, P)
        world.announce(3, P, (4000,))
        world.commit()
        world.clock.advance_to(1200.0)
        world.announce(2, Q)
        world.commit()
        assert world.recorder.log.trim(now=1250.0).entries
        expected = world.recorder.state.known_prefixes()
        assert expected == {P, Q}
        store.close()

        hub = LoopbackHub()
        for neighbor in NEIGHBORS:
            hub.attach(neighbor)
        cold = NodeRuntime(
            world.identity, world.registry, SCHEME, hub.attach(ELECTOR),
            neighbors=NEIGHBORS, config=self.CONFIG, clock=world.clock,
            store_dir=store_dir)
        try:
            kinds = [e.kind for e in cold.recorder.log]
            # A segment went, and what is left does not start at the
            # checkpoint: neither a full replay nor a trimmed list.
            assert kinds[0] is not EntryKind.CHECKPOINT
            assert kinds.count(EntryKind.RECV_ANNOUNCE) < 3
            assert not cold.recorder.alarms
            assert cold.recorder.state.known_prefixes() == expected
            world.recorder = cold.recorder
            world.clock.advance_to(1300.0)
            world.commit()
            # The first round's COMMITMENT entry survived in the kept
            # segment but its replay base went with the dropped one: it
            # is past retention, like everything the in-memory trim
            # dropped.
            assert kinds[0] is EntryKind.COMMITMENT
            world.finish(since=1200.0)
        finally:
            cold.close()
