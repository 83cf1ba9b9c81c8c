"""Retry/backoff delivery and the ACK-or-evidence rule (Section 6.2).

The acceptance scenario: a fault that drops every ACK must first drive
exponential-backoff retransmissions and then, once attempts are
exhausted *and* T_max has elapsed, produce a
:class:`~repro.spider.evidence.MissingAckEvidence` record plus the
recorder alarm the paper requires.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.delivery import RetryPolicy
from repro.runtime.scenario import ASN_A, ASN_B, ROUTE, \
    exchange_runtime, run_loopback_exchange
from repro.runtime.transport import LoopbackHub
from repro.spider.evidence import missing_ack_evidence_valid
from repro.spider.log import EntryKind
from repro.spider.wire import SpiderAck

FAST_RETRY = RetryPolicy(initial=0.5, factor=2.0, max_delay=8.0,
                         jitter=0.1, max_attempts=4)


def drop_acks(_sender, _receiver, message):
    return isinstance(message, SpiderAck)


def record_sends(rt):
    """The live list of ``(time, message)`` leaving ``rt``'s recorder."""
    sends = []
    transport = rt.recorder.transport
    rt.recorder.transport = lambda receiver, messages: (
        sends.extend((rt.clock.now, m) for m in messages),
        transport(receiver, messages))[-1]
    return sends


def run_dropped_ack_scenario():
    """Announce from A to B while the hub eats every ACK."""
    hub = LoopbackHub(drop_filter=drop_acks)
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                            retry_policy=FAST_RETRY)
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                            retry_policy=FAST_RETRY)
    sends = record_sends(rt_a)

    rt_a.advance_to(1.0)
    rt_a.announce(ASN_B, ROUTE)
    hub.deliver_all()
    rt_b.advance_to(1.0)
    rt_b.deliver_pending()

    t = 1.0
    while not rt_a.delivery.evidence and t < 60.0:
        t += 0.25
        rt_a.advance_to(t)
        rt_b.advance_to(t)
        hub.deliver_all()
        rt_b.deliver_pending()
    return rt_a, rt_b, hub, sends


class TestDroppedAckFault:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_dropped_ack_scenario()

    def test_retries_happened_with_growing_backoff(self, scenario):
        rt_a, _rt_b, _hub, sends = scenario
        assert rt_a.delivery.retries_sent == \
            FAST_RETRY.max_attempts - 1
        send_times = [t for t, _m in sends]
        assert len(send_times) == FAST_RETRY.max_attempts
        gaps = [b - a for a, b in zip(send_times, send_times[1:])]
        # Exponential backoff: every gap strictly exceeds the previous
        # (jitter is ±10%, factor is 2 — the order cannot flip).
        assert all(later > earlier
                   for earlier, later in zip(gaps, gaps[1:]))

    def test_retransmissions_carry_the_same_message(self, scenario):
        _rt_a, _rt_b, _hub, sends = scenario
        hashes = {m.message_hash() for _t, m in sends}
        assert len(hashes) == 1

    def test_evidence_surfaces_after_t_max(self, scenario):
        rt_a, _rt_b, _hub, _sends = scenario
        assert len(rt_a.delivery.evidence) == 1
        evidence = rt_a.delivery.evidence[0]
        assert evidence.accused == ASN_B
        assert evidence.attempts == FAST_RETRY.max_attempts
        assert evidence.gave_up_at - evidence.first_sent >= \
            rt_a.config.ack_timeout
        assert missing_ack_evidence_valid(
            rt_a.node.registry, evidence, rt_a.config.ack_timeout)

    def test_recorder_alarm_raised(self, scenario):
        rt_a, _rt_b, _hub, _sends = scenario
        assert any("no ack from AS12" in alarm
                   for alarm in rt_a.recorder.alarms)

    def test_acks_really_were_dropped(self, scenario):
        _rt_a, _rt_b, hub, _sends = scenario
        assert hub.frames_dropped == FAST_RETRY.max_attempts

    def test_receiver_saw_every_retransmission(self, scenario):
        _rt_a, rt_b, _hub, _sends = scenario
        received = rt_b.recorder.log.of_kind(EntryKind.RECV_ANNOUNCE)
        assert len(received) == FAST_RETRY.max_attempts


class TestAckCancelsRetry:
    def test_clean_exchange_never_retransmits(self):
        summary_a, summary_b = run_loopback_exchange()
        assert summary_a["retries"] == 0
        assert summary_a["alarms"] == []
        assert summary_b["alarms"] == []


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        import random
        policy = RetryPolicy(initial=1.0, factor=2.0, max_delay=4.0,
                             jitter=0.0, max_attempts=10)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_bounded(self):
        import random
        policy = RetryPolicy(initial=1.0, jitter=0.25)
        rng = random.Random(7)
        for n in range(1, 20):
            delay = policy.delay(1, rng)
            assert 0.75 <= delay <= 1.25

    @pytest.mark.parametrize("kwargs", [
        {"initial": 0.0}, {"factor": 0.5}, {"jitter": 1.0},
        {"jitter": -0.1}, {"max_attempts": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_jitter_cannot_pierce_max_delay(self):
        """max_delay is a hard ceiling (regression: jitter used to be
        applied *after* the cap, so a +50% draw on a capped delay could
        reach 1.5x the documented maximum)."""
        import random
        policy = RetryPolicy(initial=30.0, factor=2.0, max_delay=30.0,
                             jitter=0.5, max_attempts=10)
        rng = random.Random(1)
        for n in range(1, 8):
            for _ in range(50):
                assert policy.delay(n, rng) <= policy.max_delay

    @settings(max_examples=150, deadline=None)
    @given(initial=st.floats(0.01, 100.0),
           factor=st.floats(1.0, 4.0),
           max_delay=st.floats(0.01, 120.0),
           jitter=st.floats(0.0, 0.99),
           retry_number=st.integers(1, 12),
           seed=st.integers(0, 2**16))
    def test_delay_never_exceeds_max(self, initial, factor, max_delay,
                                     jitter, retry_number, seed):
        import random
        policy = RetryPolicy(initial=initial, factor=factor,
                             max_delay=max_delay, jitter=jitter,
                             max_attempts=5)
        delay = policy.delay(retry_number, random.Random(seed))
        assert 0.0 <= delay <= max_delay

    def test_give_up_exactly_at_t_max_boundary(self):
        """Give-up lands *exactly* at first_sent + ack_timeout when the
        clock hits that instant: the evidence window is closed-exact,
        not strict-greater."""
        hub = LoopbackHub(drop_filter=drop_acks)
        quick = RetryPolicy(initial=0.1, factor=1.5, max_delay=0.5,
                            jitter=0.0, max_attempts=2)
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=quick)
        hub.attach(ASN_B)  # silent: never ACKs
        rt_a.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        # Fine-grained stepping so every timer fires at its exact due
        # time: retry at 1.1, exhaustion at 1.25, wait-out ends at 11.0.
        for step in range(20, 241):
            rt_a.advance_to(step * 0.05)
        assert len(rt_a.delivery.evidence) == 1
        evidence = rt_a.delivery.evidence[0]
        timeout = rt_a.config.ack_timeout
        assert evidence.gave_up_at - evidence.first_sent == \
            pytest.approx(timeout)
        assert evidence.gave_up_at == pytest.approx(
            evidence.first_sent + timeout)
        assert missing_ack_evidence_valid(
            rt_a.node.registry, evidence, timeout)

    def test_late_ack_between_exhaustion_and_t_max(self):
        """An ACK that arrives after the last retransmission but before
        T_max must cancel the pending alarm: no evidence, ever."""
        hub = LoopbackHub(drop_filter=drop_acks)
        quick = RetryPolicy(initial=0.1, factor=1.5, max_delay=0.5,
                            jitter=0.0, max_attempts=2)
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=quick)
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                                retry_policy=quick)
        rt_a.advance_to(1.0)
        rt_b.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        hub.deliver_all()
        rt_b.deliver_pending()  # B ACKs; the hub eats it
        # Exhaust A's attempts (max 2, done by t = 1.25)...
        for step in range(20, 101):
            t = step * 0.05
            rt_a.advance_to(t)
            rt_b.advance_to(t)
            hub.deliver_all()
            rt_b.deliver_pending()
        assert rt_a.delivery.pending  # attempts spent, T_max not reached
        assert rt_a.delivery.evidence == []
        # ...then hand A the ACK B logged but the network dropped,
        # squarely inside the (exhaustion, T_max) window.
        acks = rt_b.recorder.log.of_kind(EntryKind.SENT_ACK)
        assert acks
        rt_a.node.receive_spider(acks[0].payload)
        assert rt_a.delivery.pending == {}
        assert rt_a.delivery.acks_matched == 1
        # Let T_max (and much more) elapse: the wait-out timer still
        # fires, but must find nothing to accuse.
        for t in (11.0, 12.0, 30.0):
            rt_a.advance_to(t)
        assert rt_a.delivery.evidence == []
        assert rt_a.recorder.alarms == []

    def test_no_duplicate_evidence_after_give_up(self):
        """Once evidence exists for a message, later timer firings and
        further time must not add a second record or a second alarm."""
        hub = LoopbackHub(drop_filter=drop_acks)
        quick = RetryPolicy(initial=0.1, factor=1.5, max_delay=0.5,
                            jitter=0.0, max_attempts=2)
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=quick)
        hub.attach(ASN_B)
        rt_a.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        for step in range(5, 61):
            rt_a.advance_to(step * 0.25)
        assert len(rt_a.delivery.evidence) == 1
        rt_a.advance_to(30.0)
        rt_a.advance_to(60.0)
        assert len(rt_a.delivery.evidence) == 1
        missing_ack_alarms = [a for a in rt_a.recorder.alarms
                              if "no ack" in a]
        assert len(missing_ack_alarms) == 1
        assert rt_a.delivery.pending == {}

    def test_premature_alarm_is_deferred_past_t_max(self):
        """Attempts can run out before T_max; the alarm must still wait
        out the full ack_timeout before accusing anyone."""
        hub = LoopbackHub(drop_filter=drop_acks)
        quick = RetryPolicy(initial=0.1, factor=1.5, max_delay=0.5,
                            jitter=0.0, max_attempts=2)
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=quick)
        hub.attach(ASN_B)  # present but silent: never ACKs
        rt_a.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        # Attempts exhausted long before T_max = 10 s...
        rt_a.advance_to(5.0)
        assert rt_a.delivery.evidence == []
        # ...the evidence only lands once T_max has truly elapsed.
        rt_a.advance_to(11.5)
        assert len(rt_a.delivery.evidence) == 1
        evidence = rt_a.delivery.evidence[0]
        assert evidence.gave_up_at - evidence.first_sent >= 10.0


class TestBatchedRetryFlush:
    """Retries that fire in one timer pump leave as one ``send`` per
    receiver — and the §6.2 bookkeeping (attempt counts, T_max,
    evidence) does not depend on how the transport groups them."""

    def test_retries_coalesce_into_one_send(self):
        hub = LoopbackHub(drop_filter=drop_acks)
        transport_a = hub.attach(ASN_A)
        rt_a = exchange_runtime(ASN_A, transport_a,
                                retry_policy=FAST_RETRY)
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                                retry_policy=FAST_RETRY)
        calls = []
        original = transport_a.send
        transport_a.send = lambda receiver, messages: (
            calls.append((receiver, list(messages))),
            original(receiver, messages))[-1]

        rt_a.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        rt_a.withdraw(ASN_B, ROUTE.prefix)
        hub.deliver_all()
        rt_b.advance_to(1.0)
        rt_b.deliver_pending()

        # Both first retries are due by t=2 (0.5s initial ±10%); one
        # pump fires both and the zero-delay flush in the same call.
        rt_a.advance_to(2.0)
        assert rt_a.delivery.retries_sent == 2
        batched = [(r, ms) for r, ms in calls if len(ms) == 2]
        assert len(batched) == 1
        receiver, messages = batched[0]
        assert receiver == ASN_B
        hub.deliver_all()
        rt_b.deliver_pending()
        assert rt_b.recorder.alarms == []

    def test_evidence_timing_identical_to_single_send_path(self):
        """Run the dropped-ACK fault twice — the transport as is versus
        a bare-callable wrapper that splits every batch into single
        sends — and the §6.2 outcomes must match exactly."""

        def outcome(force_single):
            hub = LoopbackHub(drop_filter=drop_acks)
            transport_a = hub.attach(ASN_A)
            rt_a = exchange_runtime(ASN_A, transport_a,
                                    retry_policy=FAST_RETRY)
            rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                                    retry_policy=FAST_RETRY)
            if force_single:
                rt_a.recorder.transport = \
                    lambda receiver, messages: \
                    [transport_a.send(receiver, [m]) for m in messages]
            rt_a.advance_to(1.0)
            rt_a.announce(ASN_B, ROUTE)
            hub.deliver_all()
            rt_b.advance_to(1.0)
            rt_b.deliver_pending()
            t = 1.0
            while not rt_a.delivery.evidence and t < 60.0:
                t += 0.25
                rt_a.advance_to(t)
                rt_b.advance_to(t)
                hub.deliver_all()
                rt_b.deliver_pending()
            (evidence,) = rt_a.delivery.evidence
            received = rt_b.recorder.log.of_kind(
                EntryKind.RECV_ANNOUNCE)
            return (rt_a.delivery.retries_sent, evidence.attempts,
                    evidence.first_sent, evidence.gave_up_at,
                    len(received))

        batched = outcome(force_single=False)
        single = outcome(force_single=True)
        assert batched[:4] == single[:4]
        # The receiver saw every retransmission in both runs.
        assert batched[4] == single[4] == FAST_RETRY.max_attempts


class TestRetriesSurviveARestart:
    """§6.2 owes every sent message an ACK or an alarm, and a crash
    between the send and the ACK does not cancel the debt: the log
    holds the un-ACKed ``SENT_ANNOUNCE``, the recovered recorder awaits
    it again, and the delivery service of the cold runtime arms a
    retry for everything the recorder awaits."""

    @staticmethod
    def crash_after_the_announce(store_dir, close=True):
        """Side A announces on a durable log and dies before any ACK
        arrives; returns the entry that logged the send.  Without
        ``close`` the runtime is dropped as it stands, which is what a
        SIGKILL leaves under ``fsync=always``."""
        hub = LoopbackHub(drop_filter=drop_acks)
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=FAST_RETRY,
                                store_dir=store_dir)
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                                retry_policy=FAST_RETRY)
        rt_a.advance_to(1.0)
        rt_a.announce(ASN_B, ROUTE)
        hub.deliver_all()
        rt_b.advance_to(1.0)
        rt_b.deliver_pending()  # B ACKs; the hub eats it
        hub.deliver_all()
        rt_a.deliver_pending()
        assert rt_a.delivery.retries_sent == 0
        (sent,) = rt_a.recorder.log.of_kind(EntryKind.SENT_ANNOUNCE)
        if close:
            rt_a.close()
        return sent

    @staticmethod
    def reopen_cold(store_dir, hub):
        """A's directory under a new process's worth of state, B with
        no memory of the announcement; A's egress is recorded."""
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                retry_policy=FAST_RETRY,
                                store_dir=store_dir)
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B),
                                retry_policy=FAST_RETRY)
        return rt_a, rt_b, record_sends(rt_a)

    @staticmethod
    def run_until(rt_a, rt_b, hub, done, until=60.0):
        t = 1.0
        while not done() and t < until:
            t += 0.25
            rt_a.advance_to(t)
            rt_b.advance_to(t)
            hub.deliver_all()
            rt_b.deliver_pending()
            hub.deliver_all()
            rt_a.deliver_pending()

    def test_retries_resume_then_evidence_and_alarm(self, tmp_path):
        self.check_retries_resume(str(tmp_path / "a"), close=True)

    def test_retries_resume_after_a_crash_without_close(self, tmp_path):
        self.check_retries_resume(str(tmp_path / "a"), close=False)

    def check_retries_resume(self, store_dir, close):
        from repro.runtime.codec import encode_message
        sent = self.crash_after_the_announce(store_dir, close)
        hub = LoopbackHub(drop_filter=drop_acks)
        rt_a, rt_b, sends = self.reopen_cold(store_dir, hub)
        try:
            assert rt_a.recovery.stats.records == 1
            assert list(rt_a.delivery.pending) == \
                [sent.payload.message_hash()]
            assert rt_a.timers.pending == 1
            self.run_until(rt_a, rt_b, hub,
                           lambda: rt_a.delivery.evidence)
            # Attempts restart at 1 — the cold runtime cannot know how
            # many went out before the crash — so a full schedule runs.
            assert rt_a.delivery.retries_sent == \
                FAST_RETRY.max_attempts - 1
            assert [encode_message(m) for _t, m in sends] == \
                [encode_message(sent.payload)] * \
                (FAST_RETRY.max_attempts - 1)
            (evidence,) = rt_a.delivery.evidence
            assert evidence.message == sent.payload
            # The T_max clock did not restart: it runs from the logged
            # send time.
            assert evidence.first_sent == sent.timestamp == 1.0
            assert evidence.attempts == FAST_RETRY.max_attempts
            assert missing_ack_evidence_valid(
                rt_a.node.registry, evidence, rt_a.config.ack_timeout)
            assert any("no ack from AS12" in alarm
                       for alarm in rt_a.recorder.alarms)
            assert rt_a.delivery.pending == {}
            # Nothing was logged twice: the retransmissions are the
            # logged message, not new sends.
            assert len(rt_a.recorder.log) == 1
        finally:
            rt_a.close()

    def test_an_ack_after_the_restart_cancels_the_retry(self, tmp_path):
        store_dir = str(tmp_path / "a")
        sent = self.crash_after_the_announce(store_dir)
        hub = LoopbackHub()  # the network has healed
        rt_a, rt_b, sends = self.reopen_cold(store_dir, hub)
        try:
            self.run_until(rt_a, rt_b, hub,
                           lambda: not rt_a.delivery.pending)
            assert [m.message_hash() for _t, m in sends] == \
                [sent.payload.message_hash()]
            assert rt_a.delivery.acks_matched == 1
            assert rt_a.delivery.pending == {}
            for t in (11.0, 12.0, 30.0, 60.0):
                rt_a.advance_to(t)
            assert rt_a.delivery.retries_sent == 1
            assert rt_a.delivery.evidence == []
            assert rt_a.recorder.alarms == []
            assert rt_a.recorder.overdue_acks() == []
        finally:
            rt_a.close()
