"""ACK-tracked delivery: retry with backoff, then evidence.

Section 6.2 requires every SPIDeR message to be acknowledged; a missing
ACK past T_max is an alarm.  On a real network, though, a lost frame is
far more likely than a misbehaving neighbor, so the runtime retries
first: each unacknowledged announcement or withdrawal is retransmitted
on an exponential backoff schedule (with seeded jitter, so tests are
reproducible) until either the ACK arrives or the sender has both
exhausted its attempts and waited out ``ack_timeout`` — at which point a
:class:`~repro.spider.evidence.MissingAckEvidence` record is produced
and the recorder raises the paper's out-of-band alarm.

The service plugs into the recorder through its send/receive hooks: no
recorder code path changes, the tracking rides alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..obs.registry import get_registry
from ..spider.evidence import MissingAckEvidence
from ..spider.recorder import Recorder, Scheduler
from ..spider.wire import SpiderAck


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


@dataclass
class PendingDelivery:
    """One message awaiting its ACK."""

    message: object
    receiver: int
    first_sent: float
    attempts: int = 1
    #: Timestamps of every (re)transmission, the first send included.
    history: List[float] = field(default_factory=list)


class DeliveryService:
    """Tracks unacknowledged messages for one recorder and retries them.

    ``schedule`` is any ``(delay, thunk)`` scheduler — the simulator's
    ``sim.after``, or a :class:`~repro.runtime.node_runtime.TimerWheel`
    for stepped/wall-clock runtimes.
    """

    def __init__(self, recorder: Recorder, schedule: Scheduler,
                 policy: Optional[RetryPolicy] = None, seed: int = 0,
                 on_evidence: Optional[
                     Callable[[MissingAckEvidence], None]] = None):
        self.recorder = recorder
        self.schedule = schedule
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = random.Random(seed)
        self.on_evidence = on_evidence
        self.pending: Dict[bytes, PendingDelivery] = {}
        self.evidence: List[MissingAckEvidence] = []
        self.retries_sent = 0
        self.acks_matched = 0
        #: Retransmissions accumulated within one timer pump, per
        #: receiver, flushed in a single batched send (see
        #: :meth:`_flush_retries`).
        self._retry_batch: Dict[int, List[object]] = {}
        self._flush_scheduled = False
        # Registry mirrors of the counters above, plus the backoff
        # histogram, all attributed to this recorder's AS.
        obs = get_registry()
        node = f"as{recorder.identity.asn}"
        self._retries_counter = obs.counter("delivery_retries_total",
                                            node=node)
        self._acks_counter = obs.counter("delivery_acks_matched_total",
                                         node=node)
        self._giveups_counter = obs.counter("delivery_give_ups_total",
                                            node=node)
        self._tracked_counter = obs.counter("delivery_tracked_total",
                                            node=node)
        self._pending_gauge = obs.gauge("delivery_pending", node=node)
        self._backoff_histogram = obs.histogram("retry_backoff_seconds",
                                                node=node)
        recorder.add_sent_hook(self._on_sent)
        recorder.add_ack_hook(self._on_ack)

    # ------------------------------------------------------------------
    # Hook targets

    def _on_sent(self, message: object) -> None:
        """An ack-expecting message left the recorder: start tracking."""
        message_hash = message.message_hash()
        if message_hash in self.pending:
            return  # already tracked (recorder-level duplicate)
        now = self.recorder.clock.now
        entry = PendingDelivery(message=message,
                                receiver=message.receiver,
                                first_sent=now, history=[now])
        self.pending[message_hash] = entry
        self._tracked_counter.inc()
        self._pending_gauge.set(len(self.pending))
        self._schedule_retry(message_hash, retry_number=1)

    def _on_ack(self, ack: SpiderAck) -> None:
        if self.pending.pop(ack.message_hash, None) is not None:
            self.acks_matched += 1
            self._acks_counter.inc()
            self._pending_gauge.set(len(self.pending))

    # ------------------------------------------------------------------
    # Retry machinery

    def _schedule_retry(self, message_hash: bytes,
                        retry_number: int) -> None:
        delay = self.policy.delay(retry_number, self.rng)
        self._backoff_histogram.observe(delay)
        self.schedule(delay, lambda: self._retry(message_hash))

    def _retry(self, message_hash: bytes) -> None:
        entry = self.pending.get(message_hash)
        if entry is None:
            return  # acknowledged in the meantime
        now = self.recorder.clock.now
        timeout = self.recorder.config.ack_timeout
        if entry.attempts >= self.policy.max_attempts:
            if now - entry.first_sent < timeout:
                # Attempts exhausted but T_max not reached: the alarm
                # would be premature, wait out the remainder.
                self.schedule(timeout - (now - entry.first_sent),
                              lambda: self._retry(message_hash))
                return
            self._give_up(message_hash, entry, now)
            return
        entry.attempts += 1
        entry.history.append(now)
        self.retries_sent += 1
        self._retries_counter.inc()
        # Retries firing in the same timer pump (a burst of unacked
        # messages shares a backoff schedule) coalesce into one send
        # per receiver.  The zero-delay flush runs within the same
        # pump, so the retransmission timing, attempt counting, and
        # §6.2 ACK-or-evidence bookkeeping above are those of an
        # immediate send.
        self._retry_batch.setdefault(entry.receiver,
                                     []).append(entry.message)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(0.0, self._flush_retries)
        self._schedule_retry(message_hash, retry_number=entry.attempts)

    def _flush_retries(self) -> None:
        self._flush_scheduled = False
        batches, self._retry_batch = self._retry_batch, {}
        for receiver, messages in batches.items():
            self.recorder.transport(receiver, messages)

    def _give_up(self, message_hash: bytes, entry: PendingDelivery,
                 now: float) -> None:
        del self.pending[message_hash]
        self._giveups_counter.inc()
        self._pending_gauge.set(len(self.pending))
        evidence = MissingAckEvidence(message=entry.message,
                                      first_sent=entry.first_sent,
                                      attempts=entry.attempts,
                                      gave_up_at=now)
        self.evidence.append(evidence)
        self.recorder.alarm(
            "missing_ack",
            f"no ack from AS{entry.receiver} after "
            f"{entry.attempts} attempts over "
            f"{now - entry.first_sent:.1f}s")
        if self.on_evidence is not None:
            self.on_evidence(evidence)
