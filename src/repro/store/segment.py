"""On-disk segment format for the durable tamper-evident log.

One segment is one append-only file::

    header:  magic "SPDRSEG1" | u32 store_version | u64 base_index
    frame:   u32 payload_len | u32 crc32(payload) | payload
    payload: u8 record_version | u64 index | chain[20] | entry_bytes...

``entry_bytes`` is exactly the canonical evidence-log encoding of the
entry (:func:`repro.runtime.logdump.encode_entry`) — the bytes the
log hashed into ``chain = H(prev_chain | entry_bytes)`` and handed
over, written as given — so the durable form, the chained form and the
byte-identical-logs acceptance form are the same bytes.  Nothing else
about the entry is stored: its accounting size is derived from the
decoded payload, as :meth:`repro.spider.log.SpiderLog.append` derives
it.

The CRC32 detects accidental corruption (torn writes, bit rot) frame
by frame; *adversarial* tampering is caught one level up, by the hash
chain check over ``entry_bytes`` in :mod:`repro.store.recovery`.

This module is deliberately dumb: pure byte-level encode/decode/scan
with no file-descriptor state.  :mod:`repro.store.seglog` owns file
lifecycles and fsync policy.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..crypto.hashing import DIGEST_SIZE

#: Bumped whenever the segment layout changes shape; readers reject
#: other versions outright rather than guessing.  Version 1 carried a
#: u64 ``size_bytes`` in the record prefix and chained over it instead
#: of over ``entry_bytes``.
STORE_VERSION = 2

SEGMENT_MAGIC = b"SPDRSEG1"

_S_HEADER = struct.Struct(">8sIQ")   # magic | version | base_index
_S_FRAME = struct.Struct(">II")      # payload_len | crc32
_S_RECORD = struct.Struct(">BQ")     # version | index

HEADER_SIZE = _S_HEADER.size
FRAME_OVERHEAD = _S_FRAME.size
RECORD_OVERHEAD = _S_RECORD.size + DIGEST_SIZE

#: Upper bound on one frame's payload; anything larger in a length
#: prefix is treated as corruption, not an allocation request.
MAX_RECORD_SIZE = 1 << 24

_SEGMENT_RE = re.compile(r"^seg-([0-9a-f]{16})\.log$")


class StoreError(RuntimeError):
    """Any durable-store failure (misuse, I/O discipline violations)."""


class StoreCorruptionError(StoreError):
    """A sealed segment or structural invariant failed verification."""


def segment_filename(base_index: int) -> str:
    """``seg-<16-hex first record index>.log`` — sorts by base index."""
    return f"seg-{base_index:016x}.log"


def parse_segment_filename(name: str) -> Optional[int]:
    match = _SEGMENT_RE.match(name)
    return int(match.group(1), 16) if match else None


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """One segment file as the store tracks it."""

    path: str
    base_index: int
    size_bytes: int


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One framed record as scanned off disk (not yet chain-verified)."""

    index: int
    chain: bytes
    entry_bytes: bytes
    #: File offset just past this record's frame — the truncation point
    #: that keeps this record and drops everything after it.
    end_offset: int


@dataclass(frozen=True)
class ScanResult:
    """Outcome of walking one segment file front to back.

    ``error`` is ``None`` for a clean scan; otherwise it describes the
    first structural violation and ``valid_bytes`` is the offset of the
    last intact record boundary (the torn-tail truncation point).
    ``header_ok`` distinguishes a violated header (whole file suspect)
    from a violated frame.
    """

    base_index: Optional[int]
    records: List[RawRecord] = field(default_factory=list)
    valid_bytes: int = 0
    file_bytes: int = 0
    error: Optional[str] = None
    header_ok: bool = False

    @property
    def torn_bytes(self) -> int:
        return self.file_bytes - self.valid_bytes


def encode_header(base_index: int) -> bytes:
    if base_index < 0:
        raise StoreError("base index must be non-negative")
    return _S_HEADER.pack(SEGMENT_MAGIC, STORE_VERSION, base_index)


def decode_header(data: Union[bytes, memoryview]) -> int:
    """Returns the base index; raises on anything non-canonical."""
    if len(data) < HEADER_SIZE:
        raise StoreCorruptionError(
            f"segment header truncated at {len(data)} bytes")
    magic, version, base_index = _S_HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        raise StoreCorruptionError(f"bad segment magic {magic!r}")
    if version != STORE_VERSION:
        raise StoreCorruptionError(
            f"unsupported store version {version}")
    return int(base_index)


def encode_record(index: int, chain: bytes,
                  entry_bytes: bytes) -> bytes:
    """One frame payload (the fixed prefix plus the canonical entry)."""
    if len(chain) != DIGEST_SIZE:
        raise StoreError(
            f"chain digest must be {DIGEST_SIZE} bytes")
    if index < 0:
        raise StoreError("record index must be non-negative")
    return _S_RECORD.pack(STORE_VERSION, index) + chain + entry_bytes


def decode_record(data: Union[bytes, memoryview],
                  end_offset: int) -> RawRecord:
    """Strict inverse of :func:`encode_record` for one frame payload."""
    if len(data) < RECORD_OVERHEAD:
        raise StoreCorruptionError(
            f"record payload truncated at {len(data)} bytes")
    version, index = _S_RECORD.unpack_from(data, 0)
    if version != STORE_VERSION:
        raise StoreCorruptionError(
            f"unsupported record version {version}")
    chain = bytes(data[_S_RECORD.size:RECORD_OVERHEAD])
    entry_bytes = bytes(data[RECORD_OVERHEAD:])
    return RawRecord(index=int(index), chain=chain,
                     entry_bytes=entry_bytes, end_offset=end_offset)


def frame_record(payload: bytes) -> bytes:
    """``u32 len | u32 crc32 | payload`` — the unit one append writes."""
    if len(payload) > MAX_RECORD_SIZE:
        raise StoreError(
            f"record of {len(payload)} bytes exceeds the frame bound")
    return _S_FRAME.pack(len(payload),
                         zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_segment(path: str) -> ScanResult:
    """Walk one segment file, stopping at the first violation.

    Never raises for content problems — the caller decides whether a
    violation is a torn tail (final segment: truncate) or corruption
    (sealed segment: fail closed).  Only genuine I/O errors propagate.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    view = memoryview(data)
    size = len(data)
    try:
        base_index = decode_header(view)
    except StoreCorruptionError as exc:
        return ScanResult(base_index=None, records=[], valid_bytes=0,
                          file_bytes=size, error=str(exc),
                          header_ok=False)
    records: List[RawRecord] = []
    offset = HEADER_SIZE
    error: Optional[str] = None
    while offset < size:
        frame_end, payload, error = _next_frame(view, offset, size)
        if error is not None:
            break
        try:
            records.append(decode_record(payload, frame_end))
        except StoreCorruptionError as exc:
            error = f"offset {offset}: {exc}"
            break
        offset = frame_end
    return ScanResult(base_index=base_index, records=records,
                      valid_bytes=offset, file_bytes=size, error=error,
                      header_ok=True)


def _next_frame(view: memoryview, offset: int, size: int
                ) -> Tuple[int, memoryview, Optional[str]]:
    """One frame at ``offset``: ``(end_offset, payload, error)``."""
    empty = view[0:0]
    if offset + FRAME_OVERHEAD > size:
        return offset, empty, \
            f"offset {offset}: frame header truncated"
    length, crc = _S_FRAME.unpack_from(view, offset)
    if length > MAX_RECORD_SIZE:
        return offset, empty, \
            f"offset {offset}: frame length {length} exceeds bound"
    start = offset + FRAME_OVERHEAD
    end = start + length
    if end > size:
        return offset, empty, \
            f"offset {offset}: frame payload truncated"
    payload = view[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return offset, empty, f"offset {offset}: CRC mismatch"
    return end, payload, None


def list_segments(directory: str) -> List[SegmentInfo]:
    """Every segment file in ``directory``, ordered by base index."""
    infos: List[SegmentInfo] = []
    for name in sorted(os.listdir(directory)):
        base_index = parse_segment_filename(name)
        if base_index is None:
            continue
        path = os.path.join(directory, name)
        infos.append(SegmentInfo(path=path, base_index=base_index,
                                 size_bytes=os.path.getsize(path)))
    return infos
