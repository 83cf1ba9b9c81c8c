"""Length-prefixed frames for the SPIDeR byte stream.

TCP gives an ordered byte stream, not message boundaries, so every
encoded message travels as ``u32 length | payload``.  The decoder is
incremental: feed it whatever chunk the socket produced and it yields
every completed frame, buffering the rest — the standard shape of a
stream parser (cf. asyncio protocols).

Frames are bounded by :data:`MAX_FRAME_SIZE`; an oversized length prefix
means the stream is corrupt or hostile, and the decoder refuses to
allocate for it.

This module is on the wire hot path, so both directions avoid copies:

* :func:`encode_frames` gathers a whole batch of payloads into one
  buffer with a single ``b"".join`` — a writev-style path that turns
  N messages into one socket write instead of N.
* :meth:`FrameDecoder.feed` yields **zero-copy** ``memoryview`` windows
  into the fed chunk for every frame that lies wholly inside it; only
  the one frame that straddles a chunk boundary is ever copied into the
  decoder's residual buffer (and is returned as ``bytes`` once its
  remainder arrives, which empties the residual).
"""

from __future__ import annotations

import struct
from typing import List, Union

#: Refuse frames above 1 MiB: the largest legitimate SPIDeR message (a
#: signed bit proof with a full 33-step path) is a few KiB.
MAX_FRAME_SIZE = 1 << 20

LENGTH_BYTES = 4

_S_LEN = struct.Struct(">I")


class FramingError(ValueError):
    """The byte stream violates the framing protocol."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap one encoded message for the wire."""
    if len(payload) > MAX_FRAME_SIZE:
        raise FramingError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_SIZE}")
    return _S_LEN.pack(len(payload)) + payload


def encode_frames(payloads: List[bytes]) -> bytes:
    """Wrap a batch of messages as one contiguous buffer.

    The writev-style gather path: every payload is validated, then the
    length prefixes and payloads are joined in a single pass, so a
    sender can push N messages through one socket write.  Equivalent to
    ``b"".join(encode_frame(p) for p in payloads)`` but without the
    N intermediate concatenations.
    """
    parts: List[bytes] = []
    append = parts.append
    pack = _S_LEN.pack
    for payload in payloads:
        if len(payload) > MAX_FRAME_SIZE:
            raise FramingError(
                f"frame of {len(payload)} bytes exceeds "
                f"{MAX_FRAME_SIZE}")
        append(pack(len(payload)))
        append(payload)
    return b"".join(parts)


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunking.

    A framing violation is not recoverable: the stream has lost byte
    alignment, so there is no safe way to resynchronize.  The first
    :class:`FramingError` therefore *poisons* the decoder — every later
    :meth:`feed` raises immediately with a clear diagnosis instead of
    stumbling over the stale buffer.  (Before this existed, the
    oversized length prefix stayed buffered and every subsequent feed
    re-raised the original error as if the new chunk were at fault.)
    The owner must drop the connection and build a fresh decoder.

    Frames wholly inside a fed chunk come back as ``memoryview``
    windows into that chunk — no copy, but the views pin the chunk in
    memory, so a caller that retains frames past the next feed should
    take ``bytes(frame)`` of the ones it keeps.  The residual buffer
    holds at most one partial frame, so decoder memory stays bounded by
    the frame limit regardless of how the stream is chunked.
    """

    def __init__(self, max_frame: int = MAX_FRAME_SIZE):
        self.max_frame = max_frame
        #: The partial frame still in flight (empty between frames).
        self._buffer = bytearray()
        self._poison: str = ""

    @property
    def buffered(self) -> int:
        """Bytes held for the frame still in flight."""
        return len(self._buffer)

    @property
    def poisoned(self) -> bool:
        """True once a framing violation has killed this decoder."""
        return bool(self._poison)

    def _poison_with(self, reason: str) -> "FramingError":
        self._poison = reason
        return FramingError(reason)

    def feed(self, data: Union[bytes, bytearray, memoryview]) \
            -> List[Union[bytes, memoryview]]:
        """Absorb a chunk; return every frame it completed, in order."""
        if self._poison:
            raise FramingError(
                f"decoder poisoned by earlier framing error "
                f"({self._poison}); open a new stream")
        # Mutable input is snapshotted once: the views handed back must
        # never alias a buffer the caller can rewrite under them.
        chunk = data if isinstance(data, bytes) else bytes(data)
        frames: List[Union[bytes, memoryview]] = []
        pos = 0
        if self._buffer:
            pos = self._finish_straddling(chunk, frames)
            if pos < 0:
                return frames
        # Zero-copy pass over the rest of the chunk.
        n = len(chunk)
        view = None
        max_frame = self.max_frame
        while n - pos >= LENGTH_BYTES:
            length: int = _S_LEN.unpack_from(chunk, pos)[0]
            if length > max_frame:
                raise self._poison_with(
                    f"frame length {length} exceeds {max_frame}")
            end = pos + LENGTH_BYTES + length
            if end > n:
                break
            if view is None:
                view = memoryview(chunk)
            frames.append(view[pos + LENGTH_BYTES:end])
            pos = end
        if pos < n:
            self._buffer += chunk[pos:]
        return frames

    def _finish_straddling(self, chunk: bytes,
                           frames: List[Union[bytes, memoryview]]) -> int:
        """Complete the frame split across feeds; return chunk bytes
        consumed, or -1 if the frame is still incomplete."""
        buf = self._buffer
        pos = 0
        have = len(buf)
        if have < LENGTH_BYTES:
            need = LENGTH_BYTES - have
            buf += chunk[:need]
            if len(buf) < LENGTH_BYTES:
                return -1
            pos = need
            have = LENGTH_BYTES
        length: int = _S_LEN.unpack_from(buf)[0]
        if length > self.max_frame:
            raise self._poison_with(
                f"frame length {length} exceeds {self.max_frame}")
        need = LENGTH_BYTES + length - have
        if need > 0:
            take = chunk[pos:pos + need]
            buf += take
            pos += len(take)
            if len(take) < need:
                return -1
        # The residual held exactly this frame: hand it out, start over.
        frames.append(bytes(buf[LENGTH_BYTES:]))
        buf.clear()
        return pos
