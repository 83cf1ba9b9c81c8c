"""repro.runtime — SPIDeR nodes over real transports.

The simulator (:mod:`repro.netsim`) proves the protocol logic; this
package gives it a wire.  It provides, bottom-up:

* :mod:`~repro.runtime.codec` — deterministic, strict binary encodings
  for every SPIDeR wire message;
* :mod:`~repro.runtime.framing` — length-prefixed frames over a byte
  stream;
* :mod:`~repro.runtime.transport` — the Transport interface (one
  egress method, ``send(receiver, messages)``: the recorder hands over
  each signed chunk whole) plus the hermetic in-process
  :class:`LoopbackTransport`;
* :mod:`~repro.runtime.tcp` — asyncio TCP streams with per-peer bounded
  outbound queues, one cross-thread hop per ``send``;
* :mod:`~repro.runtime.delivery` — retries of the recorder's un-ACKed
  messages with exponential backoff + jitter, then the Section 6.2
  evidence path;
* :mod:`~repro.runtime.node_runtime` — a per-process host bundling
  clock, timers, inbox, and one :class:`~repro.spider.node.SpiderNode`;
* :mod:`~repro.runtime.soak` — the many-peer soak scenario: 50+
  concurrent sessions against one node runtime, with per-peer
  backpressure metrics.
"""

from .codec import CodecError, WIRE_VERSION, decode_message, \
    encode_message
from .delivery import DeliveryService, RetryPolicy
from .framing import FrameDecoder, FramingError, MAX_FRAME_SIZE, \
    encode_frame, encode_frames
from .logdump import encode_log, encode_log_entry, log_digest
from .node_runtime import NodeRuntime, StepClock, TimerWheel, WallClock
from .soak import run_soak
from .tcp import TcpTransport
from .transport import LoopbackHub, LoopbackTransport, Transport, \
    TransportError

__all__ = [
    "CodecError", "WIRE_VERSION", "decode_message", "encode_message",
    "DeliveryService", "RetryPolicy",
    "FrameDecoder", "FramingError", "MAX_FRAME_SIZE", "encode_frame",
    "encode_frames",
    "encode_log", "encode_log_entry", "log_digest",
    "NodeRuntime", "StepClock", "TimerWheel", "WallClock",
    "run_soak",
    "TcpTransport",
    "LoopbackHub", "LoopbackTransport", "Transport", "TransportError",
]
