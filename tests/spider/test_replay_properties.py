"""Property tests: log replay reproduces committed state under random
workloads, and SPIDeR stays consistent through session churn."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.obs.registry import Registry, use_registry
from repro.spider.checkpoint import apply_entry, replay
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind, SpiderLog
from repro.runtime.node_runtime import SpiderDeployment
from repro.spider.node import evaluation_scheme
from repro.spider.state import RoutingState
from repro.spider.wire import SpiderAnnounce, SpiderWithdraw, time_bytes
from tests.spider.test_retained_tree import NEIGHBORS, World
from tests.strategies import recorder_histories

FEED = 65000

PREFIX_POOL = [Prefix.parse(f"10.{i}.0.0/16") for i in range(6)]


@st.composite
def random_trace(draw):
    """A random announce/withdraw interleaving over a small prefix pool."""
    n = draw(st.integers(1, 15))
    events = []
    live = set()
    t = 1.0
    for _ in range(n):
        t += draw(st.floats(0.2, 2.0))
        prefix = draw(st.sampled_from(PREFIX_POOL))
        if prefix in live and draw(st.booleans()):
            events.append(TraceEvent(time=t, prefix=prefix, path=None))
            live.discard(prefix)
        else:
            tail = draw(st.lists(st.integers(4000, 4020), min_size=0,
                                 max_size=3, unique=True))
            events.append(TraceEvent(time=t, prefix=prefix,
                                     path=(FEED, *tail)))
            live.add(prefix)
    return events


def build(events, commit_times=(), config=SpiderConfig()):
    network = Network(figure5_topology())
    deployment = SpiderDeployment(network, scheme=evaluation_scheme(6),
                                  config=config)
    network.attach_feed(INJECTION_AS, feed_asn=FEED)
    network.schedule_trace(FEED, events)
    recorder = deployment.node(FOCUS_AS).recorder
    for t in commit_times:
        network.sim.at(t, lambda: recorder.make_commitment())
    network.settle()
    return network, deployment


class TestReplayProperties:
    @settings(max_examples=10, deadline=None)
    @given(random_trace())
    def test_every_commitment_reconstructible(self, events):
        """reconstruct() internally asserts the replayed MTT root equals
        the committed root; a mismatch raises."""
        end = max(e.time for e in events) + 1.0
        commit_times = [end / 3, 2 * end / 3, end]
        network, deployment = build(events, commit_times)
        node = deployment.node(FOCUS_AS)
        for record in node.recorder.commitments:
            reconstruction = node.proofgen.reconstruct(
                record.commit_time)
            assert reconstruction.root == record.root

    @settings(max_examples=10, deadline=None)
    @given(random_trace())
    def test_commitments_deterministic_across_runs(self, events):
        roots = []
        end = max(e.time for e in events) + 1.0
        for _ in range(2):
            network, deployment = build(events, [end])
            node = deployment.node(FOCUS_AS)
            roots.append([r.root for r in node.recorder.commitments])
        assert roots[0] == roots[1]

    @settings(max_examples=8, deadline=None)
    @given(random_trace())
    def test_verification_clean_under_random_churn(self, events):
        end = max(e.time for e in events) + 1.0
        network, deployment = build(events, [])
        deployment.commit_now(FOCUS_AS)
        outcomes = deployment.verify(FOCUS_AS)
        for outcome in outcomes:
            assert outcome.report.ok, \
                [str(v) for v in outcome.report.verdicts]

    @settings(max_examples=8, deadline=None)
    @given(random_trace())
    def test_log_chain_survives_random_workload(self, events):
        network, deployment = build(events, [])
        for node in deployment.nodes.values():
            node.recorder.log.verify_chain()
            assert not node.recorder.alarms


def ordered(state):
    """A routing state with its dict order: a resumed replay must match
    the full one down to the order proofs are generated in."""
    return ([(n, list(t.items())) for n, t in state.imports.items()],
            [(n, list(t.items())) for n, t in state.exports.items()],
            sorted(state.origins))


def scanned_commitment_at(log, t):
    """``commitment_at`` as the scan over every entry it replaced."""
    stamp = time_bytes(t)
    for entry in log:
        if entry.kind is EntryKind.COMMITMENT and \
                time_bytes(entry.timestamp) == stamp:
            return entry
    return None


class TestResumedReplay:
    """``replay(..., since=(i, replay(before_index=i)))`` is the full
    replay, for any two cuts, across checkpoints and trims."""

    @settings(max_examples=12, deadline=None)
    @given(random_trace(), st.sampled_from([0.0, 0.7, 2.5, 1e6]),
           st.integers(0, 4))
    def test_resumed_equals_full(self, events, interval, trim_after):
        end = max(e.time for e in events) + 1.0
        commit_times = [end * f / 5 for f in range(1, 6)]
        network, deployment = build(
            events, commit_times,
            SpiderConfig(checkpoint_interval=interval))
        log = deployment.node(FOCUS_AS).recorder.log
        cuts = [e.index for e in log.of_kind(EntryKind.COMMITMENT)]
        untrimmed = {i: replay(log, FOCUS_AS, before_index=i)
                     for i in cuts}
        trimmed = SpiderLog.restore(list(log), retention_seconds=0.0)
        trimmed.trim(commit_times[trim_after])
        for entries in (log, trimmed):
            full = {i: replay(entries, FOCUS_AS, before_index=i)
                    for i in cuts}
            for i in cuts:
                for base in (full[i], untrimmed[i]):
                    for j in cuts:
                        resumed = replay(entries, FOCUS_AS, before_index=j,
                                         since=(i, base))
                        assert ordered(resumed) == ordered(full[j])
                        assert resumed is not base

    def test_a_resumed_replay_leaves_its_base_alone(self):
        events = [TraceEvent(1.0 + n, PREFIX_POOL[n], (FEED, 4000 + n))
                  for n in range(4)]
        network, deployment = build(events, [1.5, 3.5, 5.5])
        log = deployment.node(FOCUS_AS).recorder.log
        cuts = [e.index for e in log.of_kind(EntryKind.COMMITMENT)]
        first, last = cuts[0], cuts[-1]
        base = replay(log, FOCUS_AS, before_index=first)
        kept = ordered(base)
        replay(log, FOCUS_AS, before_index=last, since=(first, base))
        assert ordered(base) == kept

    def test_a_returned_state_is_not_the_resume_point(self):
        """Mutating a reconstruction's state changes nothing the
        generator resumes from."""
        events = [TraceEvent(1.0 + n, PREFIX_POOL[n], (FEED, 4000 + n))
                  for n in range(4)]
        network, deployment = build(events, [1.5, 3.5, 5.5])
        node = deployment.node(FOCUS_AS)
        times = [r.commit_time for r in node.recorder.commitments]
        for earlier, later in zip(times, times[1:]):
            state = node.proofgen.reconstruct(earlier).state
            state.imports.clear()
            state.exports.clear()
            state.origins.add(PREFIX_POOL[5])
            again = node.proofgen.reconstruct(later)
            assert ordered(again.state) == \
                ordered(node.proofgen.rebuild(later).state)


@st.composite
def commitment_logs(draw):
    """A log of commitments and checkpoints on a coarse clock, so that
    some commitments share a millisecond, with the time to trim it at."""
    log = SpiderLog(retention_seconds=0.0)
    t = 0.0
    for _ in range(draw(st.integers(0, 24))):
        t += draw(st.sampled_from([0.0, 0.0004, 0.001, 0.5]))
        if draw(st.booleans()):
            log.append(t, EntryKind.COMMITMENT, {
                "seed": bytes(20),
                "root": draw(st.binary(min_size=20, max_size=20))})
        else:
            log.append(t, EntryKind.CHECKPOINT, RoutingState())
    return log, draw(st.floats(0.0, t + 0.001))


class TestCommitmentIndex:
    @settings(max_examples=150, deadline=None)
    @given(commitment_logs())
    def test_the_index_is_the_scan(self, log_and_trim):
        log, trim_at = log_and_trim
        restored = SpiderLog.restore(list(log), retention_seconds=0.0)
        trimmed = SpiderLog.restore(list(log), retention_seconds=0.0)
        trimmed.trim(trim_at)
        grown = SpiderLog.restore(list(trimmed), retention_seconds=0.0)
        last = log[-1].timestamp if len(log) else 0.0
        grown.append(last, EntryKind.COMMITMENT,
                     {"seed": bytes(20), "root": bytes(20)})
        probes = {e.timestamp + delta for e in log
                  for delta in (0.0, 0.0004, 0.0006)} | {last + 1.0}
        for held in (log, restored, trimmed, grown):
            for t in sorted(probes):
                assert held.commitment_at(t) is \
                    scanned_commitment_at(held, t)


def time_fold(log, asn, t):
    """The replay's former cut by time, kept as the reference: every
    entry stamped at or before ``t``, folded from the latest checkpoint
    among them."""
    entries = []
    for entry in log:
        if entry.timestamp > t:
            break
        entries.append(entry)
    for position in range(len(entries) - 1, -1, -1):
        if entries[position].kind is EntryKind.CHECKPOINT:
            entries = entries[position:]
            break
    state = RoutingState()
    for entry in entries:
        apply_entry(state, asn, entry)
    return state


ELECTOR, PEER = 5, 7


@functools.lru_cache(maxsize=None)
def message_pool():
    """(kind, message) pairs for the entries a trace draws from: signed
    once, since a log keeps the message objects it is handed."""
    registry = KeyRegistry()
    elector, peer = (Signer(make_identity(asn, registry=registry, bits=512,
                                          seed=900 + asn))
                     for asn in (ELECTOR, PEER))
    pool = []
    for prefix in PREFIX_POOL[:3]:
        pool += [
            (EntryKind.RECV_ANNOUNCE, SpiderAnnounce.make(
                peer, receiver=ELECTOR, timestamp=1.0,
                route=Route(prefix=prefix, as_path=(PEER, 4000),
                            neighbor=PEER), underlying=None)),
            (EntryKind.RECV_WITHDRAW, SpiderWithdraw.make(
                peer, receiver=ELECTOR, timestamp=1.0, prefix=prefix)),
            (EntryKind.SENT_ANNOUNCE, SpiderAnnounce.make(
                elector, receiver=PEER, timestamp=1.0,
                route=Route(prefix=prefix, as_path=(ELECTOR, 4001),
                            neighbor=4001), underlying=None)),
            (EntryKind.SENT_WITHDRAW, SpiderWithdraw.make(
                elector, receiver=PEER, timestamp=1.0, prefix=prefix)),
        ]
    return pool


@st.composite
def traced_logs(draw):
    """A log whose stamps repeat, step by 0.4 ms or half a second, or
    would step back (which the log clamps), with checkpoints of the
    folded state or of a foreign one, commitments and trims."""
    log = SpiderLog(retention_seconds=0.0)
    pool = message_pool()
    t = 5.0
    for _ in range(draw(st.integers(0, 30))):
        t = max(0.0, t + draw(st.sampled_from([0.0, 0.0004, 0.5, -0.3])))
        step = draw(st.sampled_from(
            ["message"] * 4 + ["checkpoint", "commitment", "trim"]))
        if step == "message":
            kind, message = draw(st.sampled_from(pool))
            log.append(t, kind, message)
        elif step == "checkpoint":
            state = time_fold(log, ELECTOR, float("inf")) \
                if draw(st.booleans()) else RoutingState()
            log.append(t, EntryKind.CHECKPOINT, state)
        elif step == "commitment":
            log.append(t, EntryKind.COMMITMENT,
                       {"seed": bytes(20), "root": bytes(20)})
        else:
            log.trim(now=t)
    return log


class TestOneCut:
    """A view at a time is the one cut at ``index_after``: it folds
    what the former time scan folded, for every ``t``."""

    @settings(max_examples=150, deadline=None)
    @given(traced_logs())
    def test_index_after_is_the_time_cut(self, log):
        stamps = [entry.timestamp for entry in log]
        probes = {stamp + delta for stamp in stamps
                  for delta in (-0.0006, -0.0004, 0.0, 0.0004, 0.0006)}
        probes |= {-1.0, 0.0, 1e6}
        if stamps:
            probes |= {stamps[0] - 1.0, stamps[-1] + 1.0}
        assert stamps == sorted(stamps)
        for held in (log, SpiderLog.restore(list(log))):
            for t in sorted(probes):
                cut = replay(held, ELECTOR,
                             before_index=held.index_after(t))
                assert ordered(cut) == ordered(time_fold(held, ELECTOR, t))


class FloatClock:
    """A clock at any float reading, as a wall clock reads."""

    def __init__(self, now):
        self.now = now

    def advance_to(self, t):
        self.now = t


class TestRestartBehindTheLog:
    """A recorder restored with its clock anywhere up to 10 s past the
    log head — behind it, as a rebased wall clock reads after a
    restart, included — commits on the log's stamps."""

    @settings(max_examples=25, deadline=None)
    @given(recorder_histories(), st.floats(0.0, 1.0))
    def test_commitments_keep_to_the_log(self, steps, where):
        with use_registry(Registry()) as registry:
            world = World()
            world.play(steps)
            live = world.recorder
            live.close()
            head = live.log[-1].timestamp
            world.clock = FloatClock(where * (head + 10.0))
            world.recorder = world.build(recovered_entries=list(live.log))
            recorder = world.recorder
            recorder.make_commitment()
            world.announce(NEIGHBORS[0], PREFIX_POOL[0])
            recorder.make_commitment()
            world.clock.advance_to(head + 11.0)
            last = recorder.make_commitment()
            assert last.commit_time == head + 11.0

            stamps = [entry.timestamp for entry in recorder.log]
            assert stamps == sorted(stamps)
            grid = [time_bytes(entry.timestamp) for entry in
                    recorder.log.of_kind(EntryKind.COMMITMENT)]
            assert len(grid) == len(set(grid))
            assert registry.total("spider_alarms_total",
                                  reason="recovered_seed_mismatch") == 0
            assert recorder.alarms == []
            world.finish()


class TestSessionChurn:
    def test_session_teardown_withdraws_and_stays_consistent(self):
        network, deployment = build(
            [TraceEvent(time=1.0, prefix=PREFIX_POOL[0],
                        path=(FEED, 4000))])
        network.originate(9, PREFIX_POOL[1])
        network.settle()
        # AS 5 loses its session to AS 7 (which carried AS 9's prefix).
        speaker5 = network.speaker(FOCUS_AS)
        for update in speaker5.remove_neighbor(7):
            network.send(update)
        network.settle()
        assert speaker5.best(PREFIX_POOL[1]) is None
        # SPIDeR commitments and verification by the remaining
        # neighbors still work.
        deployment.commit_now(FOCUS_AS)
        outcomes = deployment.verify(FOCUS_AS,
                                     neighbors=[2, 4, 6, 8])
        for outcome in outcomes:
            assert outcome.report.ok, \
                [str(v) for v in outcome.report.verdicts]
