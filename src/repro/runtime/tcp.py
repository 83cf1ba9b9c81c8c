"""Real TCP transport: asyncio streams behind the Transport interface.

One :class:`TcpTransport` per SPIDeR node: it listens on one socket for
inbound peers and keeps one outbound connection (opened lazily, with
connect retries) per neighbor it sends to.  The asyncio event loop runs
on a dedicated daemon thread so the synchronous recorder code drives the
transport with plain method calls, exactly like the simulator closure.

Backpressure is per peer and bounded: each neighbor has an outbound
queue of ``max_queue`` frames; when it fills, :meth:`send` blocks the
calling thread until the writer task drains — the socket's flow control
propagates to the producer instead of buffering without limit.

Receive dispatch happens on the loop thread.  Callbacks must therefore
be thread-compatible; :class:`~repro.runtime.node_runtime.NodeRuntime`
gives the recorder a single-producer inbox so message *processing* stays
on the caller's thread and deterministic.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import Gauge
from ..obs.registry import get_registry
from .codec import CodecError, decode_message, encode_message
from .framing import FrameDecoder, FramingError, encode_frame
from .transport import Transport, TransportError

#: How long (seconds) a sender keeps retrying to reach a peer that is
#: not accepting connections yet — generous enough for a peer process
#: that is still starting up.
CONNECT_TIMEOUT = 15.0
_CONNECT_BACKOFF = 0.05


class TcpTransport(Transport):
    """Length-prefixed SPIDeR frames over localhost (or LAN) TCP."""

    def __init__(self, asn: int, host: str = "127.0.0.1", port: int = 0,
                 peers: Optional[Dict[int, Tuple[str, int]]] = None,
                 max_queue: int = 64,
                 connect_timeout: float = CONNECT_TIMEOUT):
        super().__init__(asn)
        self.host = host
        self.port = port  # 0 = ephemeral; real port known after start()
        self.peers: Dict[int, Tuple[str, int]] = dict(peers or {})
        self.max_queue = max_queue
        self.connect_timeout = connect_timeout
        self.decode_errors = 0
        self.send_errors = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queues: Dict[int, asyncio.Queue] = {}
        self._writer_tasks: Dict[int, asyncio.Task] = {}
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopped = False
        #: High-water mark of the per-peer outbound queues: how close
        #: the bounded backpressure came to blocking the producer.
        self._queue_depth_gauge = get_registry().gauge(
            "tcp_queue_depth", node=f"as{asn}")
        #: Same depth, broken out per peer (lazily created on first
        #: send to each neighbor) — the soak scenario's backpressure
        #: signal.
        self._peer_depth_gauges: Dict[int, Gauge] = {}
        self._decode_errors_counter = get_registry().counter(
            "tcp_decode_errors_total", node=f"as{asn}")

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run_loop, name=f"spider-tcp-{self.asn}",
            daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise TransportError("TCP transport failed to start in time")
        if self._startup_error is not None:
            raise TransportError(
                f"cannot listen on {self.host}:{self.port}: "
                f"{self._startup_error}")

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_client, self.host,
                                     self.port))
            self.port = self._server.sockets[0].getsockname()[1]
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._stopped:
            return
        self._stopped = True

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for task in self._writer_tasks.values():
                task.cancel()
            self._loop.stop()

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def add_peer(self, asn: int, host: str, port: int) -> None:
        self.peers[asn] = (host, port)

    # ------------------------------------------------------------------
    # Sending

    def send(self, receiver: int, messages: Sequence[object]) -> None:
        """One cross-thread hop for the whole batch.

        A ``run_coroutine_threadsafe`` round trip costs about as much
        as everything else on the per-message TCP path, so the batch
        crosses into the loop thread once and the writer coalesces the
        frames into as few socket writes as the peer's flow control
        allows.  Backpressure is per peer and bounded: this call blocks
        until every frame of the batch is accepted by the peer queue.
        """
        if self._loop is None:
            raise TransportError("transport not started")
        if receiver not in self.peers:
            raise TransportError(f"no address for peer AS {receiver}")
        if not messages:
            return
        frames = [encode_frame(encode_message(m)) for m in messages]
        future = asyncio.run_coroutine_threadsafe(
            self._enqueue(receiver, frames), self._loop)
        future.result(timeout=self.connect_timeout + 60.0)
        for frame in frames:
            self._note_sent(len(frame))

    def _peer_gauge(self, receiver: int) -> Gauge:
        gauge = self._peer_depth_gauges.get(receiver)
        if gauge is None:
            gauge = get_registry().gauge(
                "tcp_queue_depth", node=f"as{self.asn}",
                peer=f"as{receiver}")
            self._peer_depth_gauges[receiver] = gauge
        return gauge

    async def _enqueue(self, receiver: int,
                       frames: List[bytes]) -> None:
        queue = self._queues.get(receiver)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.max_queue)
            self._queues[receiver] = queue
            self._writer_tasks[receiver] = \
                asyncio.ensure_future(self._writer(receiver, queue))
        peer_gauge = self._peer_gauge(receiver)
        for queued, frame in enumerate(frames):
            await queue.put(frame)
            if self._queues.get(receiver) is not queue:
                # The writer died while this batch waited for room: the
                # frame just queued and the rest go down with it.
                self.send_errors += len(frames) - queued
                return
            depth = queue.qsize()
            self._queue_depth_gauge.set(depth)
            peer_gauge.set(depth)

    async def _writer(self, receiver: int, queue: asyncio.Queue) -> None:
        host, port = self.peers[receiver]
        writer = None
        backlog: List[bytes] = []
        try:
            writer = await self._connect(host, port)
            while True:
                # Coalesce whatever else is already queued into this
                # write: one syscall and one drain per burst instead of
                # per frame.
                backlog = [await queue.get()]
                while True:
                    try:
                        backlog.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                writer.write(b"".join(backlog))
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (TransportError, OSError):
            # The connection is gone.  Deregister, so the next send
            # dials a fresh one instead of feeding a queue nobody
            # drains, and discard what was in flight or queued behind
            # it (draining also wakes a sender blocked on a full
            # queue): lost frames are the retry service's job (§6.2).
            del self._queues[receiver], self._writer_tasks[receiver]
            while not queue.empty():
                backlog.append(queue.get_nowait())
            self.send_errors += len(backlog)
        finally:
            if writer is not None:
                writer.close()

    async def _connect(self, host: str,
                       port: int) -> asyncio.StreamWriter:
        deadline = asyncio.get_event_loop().time() + self.connect_timeout
        backoff = _CONNECT_BACKOFF
        while True:
            try:
                _reader, writer = await asyncio.open_connection(host,
                                                                port)
                return writer
            except OSError:
                if asyncio.get_event_loop().time() >= deadline:
                    raise TransportError(
                        f"cannot connect to {host}:{port} within "
                        f"{self.connect_timeout}s")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)

    # ------------------------------------------------------------------
    # Receiving

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                try:
                    chunk = await reader.read(65536)
                except asyncio.CancelledError:
                    break  # shutdown while blocked on the socket
                if not chunk:
                    break
                try:
                    frames = decoder.feed(chunk)
                except FramingError:
                    self.decode_errors += 1
                    self._decode_errors_counter.inc()
                    break  # corrupt stream: drop the connection
                for frame in frames:
                    try:
                        message = decode_message(frame)
                    except CodecError:
                        self.decode_errors += 1
                        self._decode_errors_counter.inc()
                        continue
                    self._note_received(len(frame) + 4)
                    self._dispatch(message)
        finally:
            writer.close()
