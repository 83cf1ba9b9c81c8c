"""Property tests: log replay reproduces committed state under random
workloads, and SPIDeR stays consistent through session churn."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider.checkpoint import replay
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind, SpiderLog
from repro.spider.node import SpiderDeployment, evaluation_scheme
from repro.spider.state import RoutingState
from repro.spider.wire import time_bytes

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
