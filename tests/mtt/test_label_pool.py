"""Tests for the shared-memory warm labeling pool (repro.mtt.pool).

The pool's contract has three legs — determinism (byte-identical to
serial labeling, per node), warmth (workers survive across rounds, the
installed program across rounds on one tree), and survivability (a
dead worker, or a platform that cannot spawn one, costs a
serial-fallback round, never a wrong or partial tree).  Each gets
exercised here, plus the recorder-level lifecycle that owns the pool
in a deployment and the traffic a deployment actually sends it.
"""

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import assign_randomness, label_tree, \
    label_tree_parallel
from repro.mtt.pool import LabelPool, PoolBrokenError, _build_program
from repro.mtt.tree import Mtt
from repro.obs.registry import Registry, use_registry
from repro.core.promise import total_order_promise
from repro.netsim.events import Simulator
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider import proofgen as proofgen_module
from repro.spider import recorder as recorder_module
from repro.spider.config import SpiderConfig
from repro.spider.node import SpiderDeployment, evaluation_scheme
from repro.spider.recorder import Recorder


def entries_grid(n, k):
    return {Prefix.parse(f"10.{i}.0.0/16"): [(i >> j) & 1
                                             for j in range(k)]
            for i in range(n)}


def serial_snapshot(tree, seed):
    """Serial-label the tree and capture (root, per-node labels)."""
    report = label_tree(tree, Rc4Csprng(seed))
    return report.root_label, node_labels(tree)


def node_labels(tree):
    return [node.label for node in tree.iter_nodes()]


@pytest.fixture(scope="module")
def pools():
    """Warm pools shared across tests; keyed by width."""
    cache = {}

    def get(workers):
        if workers not in cache or cache[workers].broken:
            cache[workers] = LabelPool(workers, timeout=10.0)
        return cache[workers]

    yield get
    for pool in cache.values():
        pool.close()


class TestWarmPool:
    def test_rounds_match_serial_and_reuse_workers(self, pools):
        tree = Mtt.build(entries_grid(24, 5))
        root_a, _ = serial_snapshot(tree, b"round-a")
        root_b, _ = serial_snapshot(tree, b"round-b")
        pool = pools(2)
        pids = sorted(pool.worker_pids())
        report_a = label_tree_parallel(tree, Rc4Csprng(b"round-a"),
                                       workers=2, pool=pool)
        report_b = label_tree_parallel(tree, Rc4Csprng(b"round-b"),
                                       workers=2, pool=pool)
        assert report_a.root_label == root_a
        assert report_b.root_label == root_b
        assert report_a.mode == "process"
        # Warm: same workers served both rounds, and the second round
        # reused the installed program (no install cost).
        assert sorted(pool.worker_pids()) == pids
        assert report_b.spinup_seconds == 0.0

    def test_per_node_labels_match_serial(self, pools):
        tree = Mtt.build(entries_grid(16, 4))
        _, expected = serial_snapshot(tree, b"per-node")
        pool = pools(2)
        label_tree_parallel(tree, Rc4Csprng(b"per-node"), workers=2,
                            pool=pool, materialize=True)
        assert node_labels(tree) == expected

    def test_materialize_false_returns_root_only(self, pools):
        tree = Mtt.build(entries_grid(16, 4))
        root, _ = serial_snapshot(tree, b"root-only")
        pool = pools(2)
        report = label_tree_parallel(tree, Rc4Csprng(b"root-only"),
                                     workers=2, pool=pool,
                                     materialize=False)
        assert report.root_label == root

    def test_shape_change_reinstalls_program(self, pools):
        pool = pools(2)
        for n in (8, 20):
            tree = Mtt.build(entries_grid(n, 3))
            root, _ = serial_snapshot(tree, b"reinstall")
            report = label_tree_parallel(tree, Rc4Csprng(b"reinstall"),
                                         workers=2, pool=pool)
            assert report.root_label == root

    def test_closed_pool_raises(self):
        pool = LabelPool(2, timeout=10.0)
        pool.close()
        tree = Mtt.build(entries_grid(4, 2))
        rand_values = assign_randomness(tree, Rc4Csprng(b"closed"))
        with pytest.raises(PoolBrokenError):
            pool.label(tree, rand_values, cut_depth=2)
        pool.close()  # idempotent

    def test_dispatch_is_per_worker_not_per_job(self, pools):
        tree = Mtt.build(entries_grid(32, 4))
        rand_values = assign_randomness(tree, Rc4Csprng(b"dispatch"))
        pool = pools(2)
        result = pool.label(tree, rand_values, cut_depth=4)
        # Many subtree jobs, but at most one control message per
        # worker per round.
        assert result.jobs > pool.workers
        assert 0 < result.dispatches <= pool.workers

    def test_no_pool_means_the_serial_kernel(self):
        """Nothing spawns a pool on the caller's behalf."""
        tree = Mtt.build(entries_grid(8, 3))
        root, _ = serial_snapshot(tree, b"no-pool")
        with use_registry(Registry()) as registry:
            report = label_tree_parallel(tree, Rc4Csprng(b"no-pool"),
                                         workers=2)
            assert registry.total("mtt_pool_spinups_total") == 0
        assert report.root_label == root
        assert report.mode == "serial"
        assert report.spinup_seconds == 0.0


class TestSlotProgram:
    """The slot layout lives in pool.py alone: a serial round never
    builds it, and the pool derives it from the schedule on install."""

    def test_schedule_allocates_no_slot_arrays(self):
        from array import array
        tree = Mtt.build(entries_grid(16, 4))
        label_tree(tree, Rc4Csprng(b"serial-only"))
        schedule = tree.schedule()
        assert set(type(schedule).__slots__) == {
            "rand_plan", "bit_nodes", "interiors", "counts"}
        for name in type(schedule).__slots__:
            assert not isinstance(getattr(schedule, name),
                                  (array, bytes, bytearray))


class TestWorkerDeathRecovery:
    """Satellite: a killed worker degrades to one serial-fallback
    round with byte-identical output, and marks the pool broken."""

    def test_sigkill_mid_deployment_falls_back_serially(self):
        pool = LabelPool(2, timeout=10.0)
        if pool.broken:
            pool.close()
            pytest.skip("no subprocess support on this platform")
        tree = Mtt.build(entries_grid(20, 4))
        root, expected = serial_snapshot(tree, b"killed")
        # Warm the pool, then kill a worker the way an OOM-killer would.
        label_tree_parallel(tree, Rc4Csprng(b"warmup"), workers=2,
                            pool=pool)
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        report = label_tree_parallel(tree, Rc4Csprng(b"killed"),
                                     workers=2, pool=pool)
        assert report.mode == "serial-fallback"
        assert report.root_label == root
        assert node_labels(tree) == expected
        assert pool.broken
        pool.close()

    def test_die_command_breaks_pool(self):
        pool = LabelPool(1, timeout=5.0)
        if pool.broken:
            pool.close()
            pytest.skip("no subprocess support on this platform")
        tree = Mtt.build(entries_grid(6, 2))
        rand_values = assign_randomness(tree, Rc4Csprng(b"die"))
        pool.label(tree, rand_values, cut_depth=2)  # one good round
        pool._conns[0].send(("die",))
        with pytest.raises(PoolBrokenError):
            pool.label(tree, rand_values, cut_depth=2)
        assert pool.broken
        pool.close()

    def test_platform_without_fork_labels_serially(self, monkeypatch):
        """No thread substitute: a pool that cannot spawn is born
        broken and every round is the serial recovery path."""
        import multiprocessing

        def no_fork(method=None):
            raise OSError("fork is not available here")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        pool = LabelPool(2, timeout=5.0)
        assert pool.broken and pool.worker_pids() == []
        tree = Mtt.build(entries_grid(12, 3))
        root, expected = serial_snapshot(tree, b"no-fork")
        report = label_tree_parallel(tree, Rc4Csprng(b"no-fork"),
                                     workers=2, pool=pool)
        assert report.mode == "serial-fallback"
        assert report.root_label == root
        assert node_labels(tree) == expected
        pool.close()


class TestRecorderLifecycle:
    """The recorder owns one warm pool per deployment (§7.1's c
    commitment threads), shared with the proof generator."""

    ELECTOR, CONSUMER = 5, 7

    def make_recorder(self, **config_kwargs):
        registry = KeyRegistry()
        identity = make_identity(self.ELECTOR, registry=registry,
                                 bits=512, seed=910)
        make_identity(self.CONSUMER, registry=registry, bits=512,
                      seed=911)
        scheme = evaluation_scheme(5)
        sim = Simulator()
        return Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises={self.CONSUMER: total_order_promise(scheme)},
            config=SpiderConfig(**config_kwargs),
            clock=sim.clock,
            transport=lambda receiver, messages: None,
            schedule=sim.after)

    def test_serial_config_has_no_pool(self):
        recorder = self.make_recorder(commit_workers=1)
        assert recorder.labeling_pool() is None
        recorder.close()

    def test_pool_survives_across_commitment_rounds(self):
        recorder = self.make_recorder(commit_workers=2)
        pool = recorder.labeling_pool()
        assert pool is not None and not pool.broken
        record_a = recorder.make_commitment()
        record_b = recorder.make_commitment()
        assert record_a.root and record_b.root
        assert recorder.labeling_pool() is pool  # warm, not respawned
        recorder.close()

    def test_broken_pool_is_replaced_next_round(self):
        recorder = self.make_recorder(commit_workers=2)
        pool = recorder.labeling_pool()
        assert pool is not None
        pool.broken = True
        replacement = recorder.labeling_pool()
        assert replacement is not pool
        assert not replacement.broken
        recorder.close()

    def test_close_is_idempotent_and_releases_pool(self):
        recorder = self.make_recorder(commit_workers=2)
        assert recorder.labeling_pool() is not None
        recorder.close()
        recorder.close()
        # The recorder stays usable: a later round respawns lazily.
        assert recorder.labeling_pool() is not None
        recorder.close()


class TestDeploymentTraffic:
    """The traffic a deployment sends the labeling layer: the recorder
    relabels the one tree it keeps, with the schedule it already has
    unless a prefix appeared or vanished, and the proof generator
    labels a tree of its own per reconstruction.  On ``commit_workers
    > 1`` the pool's program is current only for an unedited tree, so
    it installs on every round whose diff is not empty.  Pinned here
    so the pool's keep-or-delete decision is made on this shape."""

    FEED = 65000

    def drive(self, commit_workers, monkeypatch):
        """Four commitments — after the first announcement, after
        nothing, after a re-announcement of the same prefix (bits
        only), after a new prefix (new shape) — then one verification
        (one reconstruction) of the first."""
        labeled = []
        for module in (recorder_module, proofgen_module):
            def spy(tree, *args, _real=module.label_tree_with_workers,
                    **kwargs):
                report = _real(tree, *args, **kwargs)
                labeled.append((tree, tree.schedule()))
                return report
            monkeypatch.setattr(module, "label_tree_with_workers", spy)
        with use_registry(Registry()) as registry:
            network = Network(figure5_topology())
            deployment = SpiderDeployment(
                network, scheme=evaluation_scheme(6),
                config=SpiderConfig(commit_workers=commit_workers))

            def feed(prefix, *tail):
                network.schedule_trace(self.FEED, [TraceEvent(
                    network.sim.now + 1.0, Prefix.parse(prefix),
                    (self.FEED, *tail))])
                network.settle()

            try:
                network.attach_feed(INJECTION_AS, feed_asn=self.FEED)
                feed("10.1.0.0/16", 4000)
                records = [deployment.commit_now(FOCUS_AS)]
                network.sim.after(1.0, lambda: None)  # time only
                network.settle()
                records.append(deployment.commit_now(FOCUS_AS))
                feed("10.1.0.0/16", 4000, 4001, 4002)
                records.append(deployment.commit_now(FOCUS_AS))
                feed("10.2.0.0/16", 4001)
                records.append(deployment.commit_now(FOCUS_AS))
                outcomes = deployment.verify(
                    FOCUS_AS, commit_time=records[0].commit_time)
            finally:
                for node in deployment.nodes.values():
                    node.close()
            installs = registry.total("mtt_pool_installs_total")
            edits = {op: registry.total("mtt_tree_edits_total", op=op)
                     for op in ("set_bits", "insert", "remove")}
        assert outcomes and all(o.report.ok for o in outcomes)
        assert sum(o.proofs.proof_count() for o in outcomes) > 0
        assert edits == {"set_bits": 1, "insert": 2, "remove": 0}
        return [r.root for r in records], labeled, installs

    def test_rounds_relabel_one_retained_tree(self, monkeypatch):
        serial_roots, serial_labeled, serial_installs = \
            self.drive(1, monkeypatch)
        monkeypatch.undo()
        pooled_roots, pooled_labeled, pooled_installs = \
            self.drive(2, monkeypatch)
        assert pooled_roots == serial_roots
        assert len(set(serial_roots)) == 4  # a new seed every round
        for labeled in (serial_labeled, pooled_labeled):
            trees = [tree for tree, _ in labeled]
            schedules = [schedule for _, schedule in labeled]
            assert len(labeled) == 5
            # Four rounds on the recorder's tree, the reconstruction
            # on one of its own.
            assert all(tree is trees[0] for tree in trees[:4])
            assert trees[4] is not trees[0]
            # The schedule outlives an empty and a bits-only round; a
            # new prefix replaces it.
            assert schedules[0] is schedules[1] is schedules[2]
            assert len({id(s) for s in schedules[2:]}) == 3
        assert serial_installs == 0
        # The first tree, then once per edited tree (bits, shape) and
        # for the reconstruction's; the empty-diff round reuses.
        assert pooled_installs == 4


@st.composite
def random_entries(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    prefixes = draw(st.sets(
        st.lists(st.integers(0, 1), min_size=0, max_size=9).map(
            lambda bits: Prefix.from_bits(tuple(bits))),
        min_size=1, max_size=n))
    return {
        p: [draw(st.integers(0, 1)) for _ in range(k)]
        for p in prefixes
    }


class TestPoolDeterminismProperty:
    """Satellite: serial and the shared-memory pool agree byte for
    byte — roots AND per-node labels — over random tree shapes, cut
    depths, and worker counts."""

    @settings(max_examples=20, deadline=None)
    @given(random_entries(), st.integers(0, 5), st.integers(2, 4),
           st.binary(min_size=1, max_size=8))
    def test_all_modes_byte_identical(self, pools, entries, cut_depth,
                                      workers, seed):
        tree = Mtt.build(entries)
        root, expected = serial_snapshot(tree, seed)
        report = label_tree_parallel(
            tree, Rc4Csprng(seed), workers=workers,
            cut_depth=cut_depth, pool=pools(workers))
        assert report.mode == "process"
        assert report.root_label == root, cut_depth
        assert node_labels(tree) == expected, cut_depth

    @settings(max_examples=10, deadline=None)
    @given(random_entries(), st.integers(0, 4))
    def test_job_partition_covers_tree(self, entries, cut_depth):
        tree = Mtt.build(entries)
        program, blob = _build_program(tree, cut_depth)
        assert program.n_slots == tree.census().total
        assert int.from_bytes(blob[12:16], "little") == program.n_slots
        seen = set()
        for lo, hi in program.job_ranges:
            block = set(range(lo, hi))
            assert block and not (block & seen)  # disjoint
            seen |= block
        assert max(seen) < program.n_slots
