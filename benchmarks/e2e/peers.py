"""The two scripted peer recorders (the load generator).

Both peers live on one asyncio loop thread — the *generator thread*.
Each holds a registered identity, an outbound connection to the hub on
which it writes pre-signed, pre-framed update bursts, and a listening
socket on which the hub's :class:`~repro.runtime.tcp.TcpTransport`
delivers ACKs, commitments and (when the hub exports) announcements.

A peer keeps its *own* record of the exchange — what it sent, which
hashes were acknowledged, which commitments arrived over the wire and
what the hub announced to it — and the harness checks the hub against
that record, never against the hub's log.

Determinism: everything a peer signs is a function of bytes it received
in TCP order on one connection, and ACKs for hub exports are signed
only once the window's whole expected export count is in, in fixed
batches, so socket chunking cannot leak into any signature or log byte.
"""

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional

from repro.crypto.signatures import Signer
from repro.runtime.codec import CodecError, decode_message, \
    encode_message
from repro.runtime.framing import FrameDecoder, encode_frames
from repro.spider.wire import SpiderAck, SpiderAnnounce, \
    SpiderCommitment, SpiderWithdraw, ack_payload

#: ACKs a peer signs per batch signature (the recorder's ``max_batch``).
ACK_BATCH = 32

SpanFactory = Callable[[str], ContextManager[None]]


@dataclass
class PeerRecord:
    """One peer's own account of the exchange."""

    asn: int
    #: Hashes the hub acknowledged, in arrival order.
    acked: List[bytes] = field(default_factory=list)
    #: One full ACK object per window, kept for signature spot checks.
    ack_samples: List[SpiderAck] = field(default_factory=list)
    #: Commitments exactly as decoded off the wire, by commit time.
    commitments: Dict[float, SpiderCommitment] = field(
        default_factory=dict)
    #: Announcements/withdrawals the hub sent to this peer, in order.
    from_hub: List[object] = field(default_factory=list)
    undecodable: int = 0
    unexpected: int = 0


class PeerGroup:
    """Both peers on one generator thread."""

    def __init__(self, host: str, hub_asn: int,
                 signers: Dict[int, Signer]):
        self.host = host
        self.hub_asn = hub_asn
        self.signers = signers
        self.records = {asn: PeerRecord(asn) for asn in signers}
        self.window_done = threading.Event()
        #: Set by the harness on a traced run: wraps the generator's
        #: own work in spans so it is not mistaken for the program's.
        self.scope: Optional[SpanFactory] = None
        self._want_acks: Dict[int, int] = {}
        self._want_exports: Dict[int, int] = {}
        self._want_commitments = 0
        self._armed = False
        self._export_mark: Dict[int, int] = {asn: 0 for asn in signers}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._servers: List[asyncio.base_events.Server] = []
        self._handlers: List["asyncio.Task[None]"] = []
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="e2e-peers", daemon=True)

    # -- lifecycle (driving thread) ------------------------------------

    def start(self) -> Dict[int, int]:
        """Start the loop thread and one listener per peer; returns
        ``{asn: port}`` for the hub's peer table."""
        self._thread.start()
        return self._call(self._listen_all())

    def connect(self, hub_port: int) -> None:
        """(Re)open every peer's outbound connection to the hub."""
        self._call(self._connect_all(hub_port))

    def stop(self) -> None:
        if self._thread.is_alive():
            self._call(self._shutdown())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("peer generator thread did not stop")

    def _call(self, coroutine):  # type: ignore[no-untyped-def]
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=30.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    # -- per-window protocol (driving thread) --------------------------

    def expect(self, acks: Dict[int, int],
               exports: Optional[Dict[int, int]] = None,
               commitments: int = 0) -> None:
        """Arm ``window_done``: it fires once every peer holds this many
        more ACKs, has received (and ACKed) this many more hub exports,
        and this many more commitments have arrived in total."""
        self._armed = False
        self.window_done.clear()

        def arm() -> None:
            for asn, record in self.records.items():
                self._want_acks[asn] = len(record.acked) + \
                    acks.get(asn, 0)
                self._want_exports[asn] = len(record.from_hub) + \
                    (exports or {}).get(asn, 0)
            self._want_commitments = commitments + sum(
                len(r.commitments) for r in self.records.values())
            self._armed = True
            self._check_done()
        self._loop.call_soon_threadsafe(arm)

    def send(self, asn: int, blob: bytes) -> None:
        """Write pre-framed bytes on ``asn``'s connection to the hub."""
        self._loop.call_soon_threadsafe(self._writers[asn].write, blob)

    def wait(self, timeout: float) -> bool:
        return self.window_done.wait(timeout)

    # -- loop thread ---------------------------------------------------

    async def _listen_all(self) -> Dict[int, int]:
        ports: Dict[int, int] = {}
        for asn in sorted(self.signers):
            server = await asyncio.start_server(
                self._handler_for(asn), self.host, 0)
            self._servers.append(server)
            ports[asn] = server.sockets[0].getsockname()[1]
        return ports

    async def _connect_all(self, hub_port: int) -> None:
        for asn in sorted(self.signers):
            old = self._writers.pop(asn, None)
            if old is not None:
                old.close()
            _reader, writer = await asyncio.open_connection(
                self.host, hub_port)
            self._writers[asn] = writer

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for writer in self._writers.values():
            writer.close()
        for task in self._handlers:
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)

    def _handler_for(self, asn: int):  # type: ignore[no-untyped-def]
        async def handler(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._handlers.append(task)
            decoder = FrameDecoder()
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    if self.scope is not None:
                        with self.scope("peer.receive"):
                            self._on_chunk(asn, decoder, chunk)
                    else:
                        self._on_chunk(asn, decoder, chunk)
            except (asyncio.CancelledError, ConnectionError):
                pass
            finally:
                writer.close()
        return handler

    def _on_chunk(self, asn: int, decoder: FrameDecoder,
                  chunk: bytes) -> None:
        record = self.records[asn]
        want_acks = self._want_acks.get(asn, 0)
        for frame in decoder.feed(chunk):
            try:
                message = decode_message(frame)
            except CodecError:
                record.undecodable += 1
                continue
            if isinstance(message, SpiderAck):
                record.acked.append(message.message_hash)
                if len(record.acked) == want_acks:
                    record.ack_samples.append(message)
            elif isinstance(message, SpiderCommitment):
                record.commitments[message.commit_time] = message
            elif isinstance(message, (SpiderAnnounce, SpiderWithdraw)):
                record.from_hub.append(message)
            else:
                record.unexpected += 1
        want = self._want_exports.get(asn, 0)
        if self._export_mark[asn] < want <= len(record.from_hub):
            self._ack_exports(asn, want)
        self._check_done()

    def _ack_exports(self, asn: int, upto: int) -> None:
        """ACK hub messages ``[mark, upto)`` in fixed signed batches."""
        record = self.records[asn]
        signer = self.signers[asn]
        pending = record.from_hub[self._export_mark[asn]:upto]
        self._export_mark[asn] = upto
        payloads: List[bytes] = []
        for start in range(0, len(pending), ACK_BATCH):
            batch = pending[start:start + ACK_BATCH]
            hashes = [m.message_hash() for m in batch]
            envelopes = signer.sign_batch([
                ack_payload(asn, self.hub_asn, m.timestamp, h)
                for m, h in zip(batch, hashes)])
            payloads.extend(
                encode_message(SpiderAck(
                    acker=asn, sender=self.hub_asn,
                    timestamp=m.timestamp, message_hash=h,
                    envelope=envelope))
                for m, h, envelope in zip(batch, hashes, envelopes))
        self._writers[asn].write(encode_frames(payloads))

    def _check_done(self) -> None:
        if not self._armed:
            return
        for asn, record in self.records.items():
            if len(record.acked) < self._want_acks.get(asn, 0):
                return
            if self._export_mark[asn] < self._want_exports.get(asn, 0):
                return
        if sum(len(r.commitments) for r in self.records.values()) < \
                self._want_commitments:
            return
        self.window_done.set()
