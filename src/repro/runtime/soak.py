"""Many-peer soak: one node runtime under 50+ concurrent sessions.

The pipeline benchmark (``benchmarks/e2e``) measures the wire path
with two peers, one window outstanding, and attributes its cost per
layer; this scenario checks the *runtime* under fan-in.  One hub :class:`~repro.runtime.node_runtime.NodeRuntime` —
real :class:`~repro.runtime.tcp.TcpTransport`, stepped clock, inbox —
faces many lightweight peer sessions hosted on a single asyncio event
loop.  Each peer holds a registered identity, streams pre-signed
announcements to the hub in batched frames (one socket write per
:func:`~repro.runtime.framing.encode_frames` burst), and runs a tiny
server on which it counts the ACKs the hub's recorder sends back
(Section 6.2: every message is acknowledged).

The interesting outputs are the backpressure signals, all registered
in :mod:`repro.obs` under names catalogued in ``obs/names.py``:

* ``soak_sessions`` — concurrently live peer sessions (the gauge's
  high-water mark proves the sessions actually overlapped);
* ``soak_messages_sent_total`` / ``soak_acks_received_total`` — per
  peer, labelled ``peer="as<N>"``;
* ``runtime_inbox_depth`` — how far arrival outran the hub's
  :meth:`~repro.runtime.node_runtime.NodeRuntime.deliver_pending`;
* ``tcp_queue_depth`` (``node`` + ``peer`` labels) — the hub's bounded
  ACK-egress queues, per peer.

Everything is seeded (identities, timestamps, prefixes), so a run is
reproducible up to socket scheduling.  Run standalone with::

    PYTHONPATH=src python -m repro.runtime.soak --sessions 50
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..crypto.keys import KeyRegistry, make_identity
from ..crypto.signatures import Signer
from ..obs.registry import get_registry
from ..spider.config import SpiderConfig
from ..spider.node import evaluation_scheme
from ..spider.wire import SpiderAck, SpiderAnnounce
from .codec import CodecError, decode_message, encode_message
from .framing import FrameDecoder, encode_frames
from .node_runtime import NodeRuntime
from .tcp import TcpTransport

#: First peer AS number; peers are numbered consecutively from here.
PEER_ASN_BASE = 64512

#: Virtual seconds per hub pump — matches the recorder's default Nagle
#: delay so every pump can flush the ACK outbox.
_STEP = 0.05


def _build_peers(registry: KeyRegistry, sessions: int, bits: int,
                 seed: int) -> Dict[int, Signer]:
    signers: Dict[int, Signer] = {}
    for index in range(sessions):
        asn = PEER_ASN_BASE + index
        identity = make_identity(asn, registry=registry, bits=bits,
                                 seed=seed + index + 1)
        signers[asn] = Signer(identity)
    return signers


def _presign_bursts(signers: Dict[int, Signer], hub_asn: int,
                    messages_per_session: int,
                    burst: int) -> Dict[int, List[bytes]]:
    """Sign and encode every announcement up front, grouped into
    ready-to-write byte bursts (one ``encode_frames`` blob each).

    Signing is the expensive part and is not what the soak measures;
    doing it before any session opens keeps the drive phase a pure
    wire-and-runtime exercise.
    """
    bursts: Dict[int, List[bytes]] = {}
    for index, (asn, signer) in enumerate(sorted(signers.items())):
        prefix = Prefix.parse(
            f"10.{(index >> 8) & 0xFF}.{index & 0xFF}.0/24")
        route = Route(prefix=prefix, as_path=(asn,), neighbor=asn)
        payloads = [
            encode_message(SpiderAnnounce.make(
                signer, receiver=hub_asn,
                timestamp=1.0 + 0.001 * j, route=route,
                underlying=None))
            for j in range(messages_per_session)
        ]
        bursts[asn] = [
            encode_frames(payloads[start:start + burst])
            for start in range(0, len(payloads), burst)
        ]
    return bursts


class _PeerPool:
    """The asyncio side: one loop thread hosting every peer session."""

    def __init__(self, host: str, hub_port: int,
                 messages_per_session: int):
        self.host = host
        self.hub_port = hub_port
        self.messages_per_session = messages_per_session
        self.acks: Dict[int, int] = {}
        self.sent: Dict[int, int] = {}
        self.sessions_done = threading.Event()
        self._servers: List[asyncio.base_events.Server] = []
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="spider-soak-peers", daemon=True)
        obs = get_registry()
        self._sessions_gauge = obs.gauge("soak_sessions")
        self._active = 0

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            # Unwind the ACK-server handlers on a live loop so their
            # stream transports close cleanly before the loop does.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens())
            self._loop.close()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        async def _close() -> None:
            for server in self._servers:
                server.close()
            self._loop.stop()

        if self._loop.is_running():
            asyncio.run_coroutine_threadsafe(_close(), self._loop)
        self._thread.join(timeout=5.0)

    def total_acks(self) -> int:
        return sum(self.acks.values())

    # -- peer-side coroutines (loop thread only) -----------------------

    async def _ack_server(self, asn: int,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Count the hub's ACKs addressed to peer ``asn``."""
        counter = get_registry().counter("soak_acks_received_total",
                                         peer=f"as{asn}")
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    try:
                        message = decode_message(frame)
                    except CodecError:
                        continue
                    if isinstance(message, SpiderAck):
                        self.acks[asn] = self.acks.get(asn, 0) + 1
                        counter.inc()
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()

    async def _listen(self, asn: int) -> Tuple[int, int]:
        async def handler(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
            await self._ack_server(asn, reader, writer)

        server = await asyncio.start_server(handler, self.host, 0)
        self._servers.append(server)
        return asn, server.sockets[0].getsockname()[1]

    async def _session(self, asn: int, bursts: List[bytes]) -> int:
        # Count the session live from the first instruction: every
        # session coroutine starts before any of them reaches an await,
        # so the gauge's high-water mark records true peak concurrency.
        self._active += 1
        self._sessions_gauge.set(self._active)
        counter = get_registry().counter("soak_messages_sent_total",
                                         peer=f"as{asn}")
        sent = 0
        try:
            _reader, writer = await asyncio.open_connection(
                self.host, self.hub_port)
            try:
                for burst in bursts:
                    writer.write(burst)
                    await writer.drain()
                    await asyncio.sleep(0)
                sent = self.messages_per_session
                counter.inc(sent)
                self.sent[asn] = sent
            finally:
                writer.close()
        finally:
            self._active -= 1
            self._sessions_gauge.set(self._active)
        return sent

    # -- orchestration (called from the driving thread) ----------------

    def open_listeners(self, asns: List[int],
                       timeout: float) -> Dict[int, int]:
        """Start one ACK server per peer; returns ``{asn: port}``."""
        async def _open_all() -> Dict[int, int]:
            pairs = await asyncio.gather(
                *(self._listen(asn) for asn in asns))
            return dict(pairs)

        future = asyncio.run_coroutine_threadsafe(_open_all(),
                                                  self._loop)
        return future.result(timeout=timeout)

    def launch_sessions(self,
                        bursts: Dict[int, List[bytes]]) -> None:
        async def _run_all() -> None:
            try:
                await asyncio.gather(
                    *(self._session(asn, burst_list)
                      for asn, burst_list in sorted(bursts.items())))
            finally:
                self.sessions_done.set()

        asyncio.run_coroutine_threadsafe(_run_all(), self._loop)


def run_soak(sessions: int = 50, messages_per_session: int = 20,
             burst: int = 16, bits: int = 512, seed: int = 7000,
             hub_asn: int = 1, host: str = "127.0.0.1",
             timeout: float = 60.0,
             max_queue: int = 64) -> Dict[str, object]:
    """Drive ``sessions`` concurrent peers through one hub runtime.

    Returns a JSON-ready report: totals, throughput, and the per-peer
    backpressure high-water marks read back from the obs registry.
    """
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    registry = KeyRegistry()
    hub_identity = make_identity(hub_asn, registry=registry, bits=bits,
                                 seed=seed)
    signers = _build_peers(registry, sessions, bits, seed)
    peer_asns = sorted(signers)
    bursts = _presign_bursts(signers, hub_asn, messages_per_session,
                             burst)

    transport = TcpTransport(hub_asn, host=host, max_queue=max_queue)
    # A wide plausibility window (Section 6.4): the stepped hub clock
    # trails wall time under load, and a soak stall must surface as a
    # missing ACK, not as a spurious stale-timestamp alarm.
    config = SpiderConfig(ack_timeout=max(10.0, timeout))
    runtime = NodeRuntime(
        hub_identity, registry, evaluation_scheme(), transport,
        neighbors=tuple(peer_asns), config=config)
    transport.start()

    pool = _PeerPool(host, transport.port, messages_per_session)
    pool.start()
    expected_acks = sessions * messages_per_session
    try:
        ports = pool.open_listeners(peer_asns, timeout=timeout)
        for asn, port in ports.items():
            transport.add_peer(asn, host, port)

        started = time.perf_counter()
        pool.launch_sessions(bursts)

        # Drive the hub: drain the inbox (recorder validates, logs, and
        # queues ACKs) and step the clock so the Nagle timer flushes
        # the ACK outbox through the TCP egress queues.
        deadline = time.monotonic() + timeout
        now = 0.0
        while time.monotonic() < deadline:
            runtime.deliver_pending()
            now = round(now + _STEP, 3)
            runtime.advance_to(now)
            if pool.sessions_done.is_set() and not runtime.inbox \
                    and pool.total_acks() >= expected_acks:
                break
            time.sleep(0.002)
        duration = time.perf_counter() - started
    finally:
        pool.stop()
        transport.stop()

    obs = get_registry()
    per_peer: Dict[str, Dict[str, int]] = {}
    for asn in peer_asns:
        depth = obs.gauge("tcp_queue_depth", node=f"as{hub_asn}",
                          peer=f"as{asn}")
        per_peer[f"as{asn}"] = {
            "messages_sent": pool.sent.get(asn, 0),
            "acks_received": pool.acks.get(asn, 0),
            "ack_queue_depth_high_water": int(depth.high_water),
        }
    messages_sent = sum(pool.sent.values())
    return {
        "sessions": sessions,
        "concurrent_sessions_high_water":
            int(pool._sessions_gauge.high_water),
        "messages_per_session": messages_per_session,
        "burst": burst,
        "messages_sent": messages_sent,
        "acks_received": pool.total_acks(),
        "acks_expected": expected_acks,
        "alarms": list(runtime.recorder.alarms),
        "duration_seconds": duration,
        "announce_msgs_per_sec":
            messages_sent / duration if duration > 0 else 0.0,
        "inbox_depth_high_water": int(
            obs.gauge("runtime_inbox_depth",
                      node=f"as{hub_asn}").high_water),
        "per_peer": per_peer,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Many-peer soak against one SPIDeR node runtime")
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument("--messages", type=int, default=20,
                        help="announcements per session")
    parser.add_argument("--burst", type=int, default=16,
                        help="frames per batched socket write")
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)
    report = run_soak(sessions=args.sessions,
                      messages_per_session=args.messages,
                      burst=args.burst, timeout=args.timeout)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = report["acks_received"] == report["acks_expected"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
