"""Hosting a SPIDeR node behind a real transport.

A :class:`NodeRuntime` owns the pieces one OS process needs to run one
AS's SPIDeR stack outside the simulator: a clock (stepped or wall), a
timer wheel for the Nagle and retry timers, a thread-safe inbox fed by
the transport, and the :class:`~repro.spider.node.SpiderNode` itself.

Determinism is the design center.  Transports deliver into the inbox
from arbitrary threads, but *processing* happens only when the caller
invokes :meth:`deliver_pending` — so a scripted exchange produces the
same log entries, with the same timestamps, whether the bytes crossed a
loopback hub or two OS processes and a TCP stack (the acceptance test
compares those logs byte for byte).
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, \
    Optional, Protocol, Sequence, Tuple

from ..bgp.messages import Announce, Withdraw
from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..core.classes import ClassScheme
from ..core.promise import Promise, total_order_promise
from ..crypto.keys import Identity, KeyRegistry
from ..obs.registry import ClockLike, get_registry
from ..spider.config import SpiderConfig
from ..spider.log import LogEntry
from ..spider.node import SpiderNode
from ..spider.recorder import CommitmentRecord, Recorder
from .delivery import DeliveryService, RetryPolicy
from .transport import Transport

if TYPE_CHECKING:
    from ..store.recovery import Recovery
    from ..store.seglog import SegmentedLogStore


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
                 store_fsync: str = "always"):
        if promises is None:
            promises = {n: total_order_promise(scheme)
                        for n in neighbors}
        self.config = config if config is not None else SpiderConfig()
        self.clock = clock if clock is not None else StepClock()
        self.timers = TimerWheel(self.clock)
        self.transport = transport
        # Durable log store.  Recovery replays and chain-verifies
        # everything on disk before the node processes its first
        # message; a directory it refuses is never opened for writing.
        # (Imported lazily: repro.store depends on this package's
        # serializer, so a module-level import would cycle.)
        self.store: Optional["SegmentedLogStore"] = None
        self.recovery: Optional["Recovery"] = None
        recovered_entries: Optional[Sequence[LogEntry]] = None
        if store_dir is not None:
            from ..store.recovery import recover
            from ..store.seglog import SegmentedLogStore
            self.store = SegmentedLogStore(store_dir, fsync=store_fsync,
                                           node=f"as{identity.asn}")
            self.recovery = recover(self.store)
            if self.recovery.entries:
                recovered_entries = self.recovery.entries
        self.node = SpiderNode(
            identity=identity, registry=registry, scheme=scheme,
            promises=promises, config=self.config, clock=self.clock,
            transport=transport,
            master_seed=b"spider-runtime-%d" % identity.asn,
            schedule=self.timers.schedule, log_store=self.store,
            recovered_entries=recovered_entries)
        self.delivery = DeliveryService(
            self.node.recorder, schedule=self.timers.schedule,
            policy=retry_policy, seed=retry_seed)
        self.inbox: Deque[object] = deque()
        #: Inbound backlog depth: how far message arrival has outrun
        #: :meth:`deliver_pending` — the runtime-side backpressure
        #: signal the soak scenario watches per peer.
        self._inbox_gauge = get_registry().gauge(
            "runtime_inbox_depth", node=f"as{identity.asn}")
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
