"""repro.runtime — SPIDeR nodes over real transports.

The simulator (:mod:`repro.netsim`) proves the protocol logic; this
package gives it a wire.  Messages cross it as the bytes of
:mod:`repro.spider.codec`.  It provides, bottom-up:

* :mod:`~repro.runtime.framing` — length-prefixed frames over a byte
  stream;
* :mod:`~repro.runtime.transport` — the Transport interface (one
  egress method, ``send(receiver, messages)``: the recorder hands over
  each signed chunk whole), the simulator's :class:`NetsimTransport`
  and the hermetic in-process :class:`LoopbackTransport`;
* :mod:`~repro.runtime.tcp` — asyncio TCP streams with per-peer bounded
  outbound queues, one cross-thread hop per ``send``;
* :mod:`~repro.runtime.delivery` — retries of the recorder's un-ACKed
  messages with exponential backoff + jitter, then the Section 6.2
  evidence path;
* :mod:`~repro.runtime.node_runtime` — the one node host (clock,
  timers, inbox, delivery, one :class:`~repro.spider.node.SpiderNode`),
  and the simulated deployments that run one on every AS;
* :mod:`~repro.runtime.soak` — the many-peer soak scenario: 50+
  concurrent sessions against one node runtime, with per-peer
  backpressure metrics;
* :mod:`~repro.runtime.dump` — ``python -m repro.runtime.dump``, the
  two-node scenario's registry as the paper's §7 cost table.
"""

from .delivery import DeliveryService, RetryPolicy
from .framing import FrameDecoder, FramingError, MAX_FRAME_SIZE, \
    encode_frame, encode_frames
from .node_runtime import NodeRuntime, SpiderDeployment, StepClock, \
    TimerWheel, WallClock
from .soak import run_soak
from .tcp import TcpTransport
from .transport import LoopbackHub, LoopbackTransport, NetsimTransport, \
    Transport, TransportError

__all__ = [
    "DeliveryService", "RetryPolicy",
    "FrameDecoder", "FramingError", "MAX_FRAME_SIZE", "encode_frame",
    "encode_frames",
    "NodeRuntime", "SpiderDeployment", "StepClock", "TimerWheel",
    "WallClock",
    "run_soak",
    "TcpTransport",
    "LoopbackHub", "LoopbackTransport", "NetsimTransport", "Transport",
    "TransportError",
]
