"""Byte-format unit tests: headers, frames, records, segment scans."""

import os
import struct

import pytest

from repro.store.segment import FRAME_OVERHEAD, HEADER_SIZE, \
    MAX_RECORD_SIZE, RECORD_OVERHEAD, SEGMENT_MAGIC, STORE_VERSION, \
    StoreCorruptionError, StoreError, decode_header, decode_record, \
    encode_header, encode_record, frame_record, list_segments, \
    parse_segment_filename, scan_segment, segment_filename

CHAIN = bytes(range(20))


def write_segment(path, base_index, payloads):
    """A segment file holding one frame per payload."""
    with open(path, "wb") as handle:
        handle.write(encode_header(base_index))
        for payload in payloads:
            handle.write(frame_record(payload))
    return str(path)


def record_payloads(n, base_index=0):
    return [encode_record(base_index + i, CHAIN, b"entry-%03d" % i)
            for i in range(n)]


class TestFilenames:
    def test_roundtrip(self):
        for base in (0, 1, 2**40, 2**64 - 1):
            assert parse_segment_filename(segment_filename(base)) == base

    def test_sorts_by_base_index(self):
        names = [segment_filename(base) for base in (0, 9, 255, 2**32)]
        assert sorted(names) == names

    def test_foreign_names_rejected(self):
        for name in ("seg-0.log", "seg-XYZ.log", "other.txt",
                     "seg-0000000000000000.log.bak"):
            assert parse_segment_filename(name) is None


class TestHeader:
    def test_roundtrip(self):
        assert decode_header(encode_header(77)) == 77

    def test_truncated(self):
        with pytest.raises(StoreCorruptionError):
            decode_header(encode_header(0)[:-1])

    def test_bad_magic(self):
        bad = b"XXXXXXXX" + encode_header(0)[8:]
        with pytest.raises(StoreCorruptionError):
            decode_header(bad)

    def test_unsupported_version(self):
        bad = struct.pack(">8sIQ", SEGMENT_MAGIC, STORE_VERSION + 1, 0)
        with pytest.raises(StoreCorruptionError):
            decode_header(bad)

    def test_version_1_is_unsupported(self):
        """Version 1 stored a size field and chained over it, not over
        the entry bytes; such a store must not open as if verified."""
        assert STORE_VERSION == 2
        old = struct.pack(">8sIQ", SEGMENT_MAGIC, 1, 0)
        with pytest.raises(StoreCorruptionError,
                           match="unsupported store version 1"):
            decode_header(old)

    def test_negative_base_rejected(self):
        with pytest.raises(StoreError):
            encode_header(-1)


class TestRecords:
    def test_roundtrip(self):
        payload = encode_record(3, CHAIN, b"hello")
        assert len(payload) == RECORD_OVERHEAD + 5 == 29 + 5
        record = decode_record(payload, end_offset=123)
        assert record.index == 3
        assert record.chain == CHAIN
        assert record.entry_bytes == b"hello"
        assert record.end_offset == 123

    def test_wrong_chain_length(self):
        with pytest.raises(StoreError):
            encode_record(0, b"short", b"")

    def test_negative_fields(self):
        with pytest.raises(StoreError):
            encode_record(-1, CHAIN, b"")

    def test_truncated_payload(self):
        payload = encode_record(0, CHAIN, b"")
        with pytest.raises(StoreCorruptionError):
            decode_record(payload[:RECORD_OVERHEAD - 1], 0)

    def test_frame_bound(self):
        with pytest.raises(StoreError):
            frame_record(b"x" * (MAX_RECORD_SIZE + 1))


class TestScan:
    def test_clean_scan(self, tmp_path):
        payloads = record_payloads(3)
        path = write_segment(tmp_path / "seg.log", 0, payloads)
        result = scan_segment(path)
        assert result.error is None
        assert result.header_ok
        assert result.base_index == 0
        assert [r.index for r in result.records] == [0, 1, 2]
        assert result.valid_bytes == result.file_bytes
        assert result.torn_bytes == 0

    def test_torn_tail(self, tmp_path):
        path = write_segment(tmp_path / "seg.log", 0,
                             record_payloads(2))
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(frame_record(record_payloads(1)[0])[:7])
        result = scan_segment(path)
        assert result.error is not None
        assert result.header_ok
        assert len(result.records) == 2
        assert result.valid_bytes == intact
        assert result.torn_bytes == 7

    def test_bitflip_stops_at_crc(self, tmp_path):
        payloads = record_payloads(3)
        path = write_segment(tmp_path / "seg.log", 0, payloads)
        # Flip one byte inside the second frame's payload.
        offset = HEADER_SIZE + FRAME_OVERHEAD + len(payloads[0]) + \
            FRAME_OVERHEAD + 4
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        result = scan_segment(path)
        assert "CRC mismatch" in result.error
        assert len(result.records) == 1
        assert result.valid_bytes == \
            HEADER_SIZE + FRAME_OVERHEAD + len(payloads[0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(b"not a segment header....")
        result = scan_segment(str(path))
        assert not result.header_ok
        assert result.error is not None
        assert result.valid_bytes == 0

    def test_short_file(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(b"abc")
        result = scan_segment(str(path))
        assert not result.header_ok
        assert result.torn_bytes == 3

    def test_insane_length_prefix(self, tmp_path):
        path = write_segment(tmp_path / "seg.log", 0, [])
        with open(path, "ab") as handle:
            handle.write(struct.pack(">II", MAX_RECORD_SIZE + 1, 0))
        result = scan_segment(path)
        assert "exceeds bound" in result.error
        assert result.records == []


class TestListSegments:
    def test_orders_and_filters(self, tmp_path):
        write_segment(tmp_path / segment_filename(16), 16,
                      record_payloads(1, 16))
        write_segment(tmp_path / segment_filename(0), 0,
                      record_payloads(1))
        (tmp_path / "README").write_text("not a segment")
        infos = list_segments(str(tmp_path))
        assert [info.base_index for info in infos] == [0, 16]
        assert all(info.size_bytes > HEADER_SIZE for info in infos)
