"""ACK-tracked delivery: retry with backoff, then evidence.

Section 6.2 requires every SPIDeR message to be acknowledged; a missing
ACK past T_max is an alarm.  This service is that one rule, on every
host — a socket runtime and each AS of a simulated deployment alike.
A lost frame is far more likely than a misbehaving neighbor, so it
retries first: each unacknowledged announcement or withdrawal is
retransmitted on an exponential backoff schedule (with seeded jitter,
so tests are reproducible) until the ACK arrives or T_max has passed
since it was sent (:func:`~repro.spider.evidence.ack_overdue`); then a
:class:`~repro.spider.evidence.MissingAckEvidence` record is produced
and the recorder raises the paper's out-of-band alarm.  A message to an
AS the transport does not reach (a §6.7 non-participant) is owed no
ACK: neither retried nor accused.

Which messages are un-ACKed is the recorder's knowledge, rebuilt from
its log at a restart: :attr:`~repro.spider.recorder.Recorder.
awaiting_ack` maps each to the ``SENT_*`` entry holding the message, its
receiver and the send time.  The service adds what the log cannot know
— timers, the attempt count each timer carries, the evidence — and arms
a timer for every awaited message: those it finds at construction (sent
before a crash; attempts restart at 1, the T_max clock does not) and,
through the recorder's sent hook, each new one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs.registry import get_registry
from ..spider.evidence import MissingAckEvidence, ack_overdue
from ..spider.log import LogEntry
from ..spider.recorder import Recorder, Scheduler
from ..spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    Delay before retransmission ``n`` (1-based) is
    ``min(initial * factor**(n-1), max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    """

    initial: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    #: Maximum transmissions, the original send included.
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("initial delay must be positive")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay(self, retry_number: int, rng: random.Random) -> float:
        base = self.initial * self.factor ** (retry_number - 1)
        if self.jitter:
            base *= rng.uniform(1 - self.jitter, 1 + self.jitter)
        # Clamp *after* jittering: max_delay is a hard ceiling, so the
        # jitter draw must never push a delay past it.
        return min(base, self.max_delay)


class DeliveryService:
    """Retries one recorder's unacknowledged messages, then accuses.

    ``schedule`` is the host's ``(delay, thunk)`` timer scheduler (a
    :class:`~repro.runtime.node_runtime.TimerWheel`, or the simulator's
    timers); ``reaches`` is its transport's
    :meth:`~repro.runtime.transport.Transport.reaches`.
    """

    def __init__(self, recorder: Recorder, schedule: Scheduler,
                 reaches: Callable[[int], bool],
                 policy: Optional[RetryPolicy] = None, seed: int = 0):
        self.recorder = recorder
        self.schedule = schedule
        self.reaches = reaches
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = random.Random(seed)
        self.evidence: List[MissingAckEvidence] = []
        self.retries_sent = 0
        self.acks_matched = 0
        #: Retransmissions accumulated within one timer pump, per
        #: receiver, flushed in a single batched send (see
        #: :meth:`_flush_retries`).
        self._retry_batch: Dict[int, List[object]] = {}
        self._flush_scheduled = False
        # Registry mirrors of the counters above, plus the backoff
        # histogram, all attributed to this recorder's AS and system.
        obs = get_registry()
        labels = type(recorder).labels_for(recorder.identity.asn)
        self._retries_counter = obs.counter("delivery_retries_total",
                                            **labels)
        self._acks_counter = obs.counter("delivery_acks_matched_total",
                                         **labels)
        self._giveups_counter = obs.counter("delivery_give_ups_total",
                                            **labels)
        self._tracked_counter = obs.counter("delivery_tracked_total",
                                            **labels)
        self._pending_gauge = obs.gauge("delivery_pending", **labels)
        self._backoff_histogram = obs.histogram("retry_backoff_seconds",
                                                **labels)
        for message_hash in recorder.awaiting_ack:
            self._track(message_hash)
        recorder.add_sent_hook(self._on_sent)
        recorder.add_ack_hook(self._on_ack)

    @property
    def pending(self) -> Dict[bytes, LogEntry]:
        """The un-ACKed messages still owed a retry or an alarm: the
        recorder's table less the ones already given up on."""
        given_up = {e.message.message_hash() for e in self.evidence}
        return {message_hash: entry for message_hash, entry
                in self.recorder.awaiting_ack.items()
                if message_hash not in given_up}

    # ------------------------------------------------------------------
    # Hook targets

    def _on_sent(self, message: object) -> None:
        assert isinstance(message, (SpiderAnnounce, SpiderWithdraw))
        self._track(message.message_hash())

    def _track(self, message_hash: bytes) -> None:
        """A message awaits its ACK: arm its first retry."""
        awaiting = self.recorder.awaiting_ack
        self._tracked_counter.inc()
        self._pending_gauge.set(len(awaiting))
        self._schedule_retry(message_hash, 1,
                             awaiting[message_hash].timestamp)

    def _on_ack(self, _ack: SpiderAck) -> None:
        self.acks_matched += 1
        self._acks_counter.inc()
        self._pending_gauge.set(len(self.recorder.awaiting_ack))

    # ------------------------------------------------------------------
    # Retry machinery

    def _schedule_retry(self, message_hash: bytes, attempts: int,
                        sent: float, backoff: bool = True) -> None:
        """Arm the timer that follows transmission number ``attempts``
        of the message sent at ``sent``: its backoff, never past T_max
        — the count lives in the timer, the message in the log."""
        delay = max(0.0, self.recorder.config.ack_timeout -
                    (self.recorder.clock.now - sent))
        if backoff:
            backoff_delay = self.policy.delay(attempts, self.rng)
            self._backoff_histogram.observe(backoff_delay)
            delay = min(delay, backoff_delay)
        self.schedule(delay, lambda: self._retry(message_hash, attempts))

    def _retry(self, message_hash: bytes, attempts: int) -> None:
        entry = self.recorder.awaiting_ack.get(message_hash)
        if entry is None:
            return  # acknowledged in the meantime
        message = entry.payload
        assert isinstance(message, (SpiderAnnounce, SpiderWithdraw))
        if not self.reaches(message.receiver):
            return  # no node there to acknowledge it
        now = self.recorder.clock.now
        if ack_overdue(entry.timestamp, now,
                       self.recorder.config.ack_timeout):
            self._give_up(message, entry.timestamp, attempts, now)
            return
        if attempts >= self.policy.max_attempts:
            # Attempts exhausted but T_max not reached: the alarm
            # would be premature, wait out the remainder.
            self._schedule_retry(message_hash, attempts, entry.timestamp,
                                 backoff=False)
            return
        self.retries_sent += 1
        self._retries_counter.inc()
        # Retries firing in the same timer pump (a burst of unacked
        # messages shares a backoff schedule) coalesce into one send
        # per receiver.  The zero-delay flush runs within the same
        # pump, so the retransmission timing, attempt counting, and
        # §6.2 ACK-or-evidence bookkeeping above are those of an
        # immediate send.
        self._retry_batch.setdefault(message.receiver,
                                     []).append(message)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(0.0, self._flush_retries)
        self._schedule_retry(message_hash, attempts + 1, entry.timestamp)

    def _flush_retries(self) -> None:
        self._flush_scheduled = False
        batches, self._retry_batch = self._retry_batch, {}
        for receiver, messages in batches.items():
            self.recorder.transport(receiver, messages)

    def _give_up(self, message: SpiderAnnounce | SpiderWithdraw,
                 first_sent: float, attempts: int, now: float) -> None:
        """No timer follows; the message stays in the recorder's table
        with the evidence on file."""
        self._giveups_counter.inc()
        self.evidence.append(MissingAckEvidence(
            message=message, first_sent=first_sent, attempts=attempts,
            gave_up_at=now))
        self.recorder.alarm(
            "missing_ack",
            f"no ack from AS{message.receiver} after "
            f"{attempts} attempts over {now - first_sent:.1f}s")
