"""Frame encoding and incremental stream reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.framing import FrameDecoder, FramingError, \
    LENGTH_BYTES, MAX_FRAME_SIZE, encode_frame, encode_frames


class TestEncodeFrame:
    def test_layout(self):
        assert encode_frame(b"abc") == b"\x00\x00\x00\x03abc"

    def test_empty_payload_allowed(self):
        assert encode_frame(b"") == b"\x00\x00\x00\x00"

    def test_oversized_payload_rejected(self):
        with pytest.raises(FramingError):
            encode_frame(b"x" * (MAX_FRAME_SIZE + 1))


class TestFrameDecoder:
    def test_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
        assert decoder.buffered == 0

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder(max_frame=16)
        with pytest.raises(FramingError):
            decoder.feed((17).to_bytes(LENGTH_BYTES, "big"))

    def test_partial_then_complete(self):
        decoder = FrameDecoder()
        frame = encode_frame(b"split me")
        assert decoder.feed(frame[:3]) == []
        assert decoder.buffered == 3
        assert decoder.feed(frame[3:]) == [b"split me"]

    def test_framing_error_poisons_decoder(self):
        """A framing violation is unrecoverable: the decoder marks
        itself dead and every later feed says so explicitly (regression:
        the oversized prefix used to stay buffered, so later feeds
        re-raised the original error as if the *new* chunk were bad)."""
        decoder = FrameDecoder(max_frame=16)
        assert not decoder.poisoned
        with pytest.raises(FramingError):
            decoder.feed((17).to_bytes(LENGTH_BYTES, "big"))
        assert decoder.poisoned
        with pytest.raises(FramingError, match="poisoned"):
            decoder.feed(encode_frame(b"perfectly valid"))

    def test_poisoned_decoder_rejects_even_empty_feed(self):
        decoder = FrameDecoder(max_frame=16)
        with pytest.raises(FramingError):
            decoder.feed((17).to_bytes(LENGTH_BYTES, "big"))
        with pytest.raises(FramingError, match="poisoned"):
            decoder.feed(b"")

    def test_fresh_decoder_is_not_poisoned_by_sibling(self):
        bad = FrameDecoder(max_frame=16)
        with pytest.raises(FramingError):
            bad.feed((17).to_bytes(LENGTH_BYTES, "big"))
        fresh = FrameDecoder(max_frame=16)
        assert fresh.feed(encode_frame(b"ok")) == [b"ok"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=8),
           st.data())
    def test_any_chunking_reassembles(self, payloads, data):
        """However the byte stream is sliced, the same frames come out
        in the same order."""
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            out += decoder.feed(stream[pos:pos + step])
            pos += step
        assert out == payloads
        assert decoder.buffered == 0


class TestEncodeFrames:
    """The writev-style batch path must be byte-equivalent to N single
    encodes — the receiver cannot tell how the sender batched."""

    def test_equivalent_to_concatenated_singles(self):
        payloads = [b"", b"a", b"bc" * 20, b"\x00" * 7]
        assert encode_frames(payloads) == \
            b"".join(encode_frame(p) for p in payloads)

    def test_empty_batch_is_empty_bytes(self):
        assert encode_frames([]) == b""

    def test_oversized_member_rejected(self):
        with pytest.raises(FramingError):
            encode_frames([b"ok", b"x" * (MAX_FRAME_SIZE + 1)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=8),
           st.data())
    def test_batched_stream_is_chunking_invariant(self, payloads, data):
        """A batch-encoded stream reassembles to the same payloads
        under any slicing, exactly like a singly-encoded one."""
        stream = encode_frames(payloads)
        decoder = FrameDecoder()
        out = []
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            out += decoder.feed(stream[pos:pos + step])
            pos += step
        assert out == payloads
        assert decoder.buffered == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=32), max_size=6), st.data())
    def test_corrupt_length_prefix_poisons_under_any_chunking(
            self, payloads, data):
        """Wherever the chunk boundaries fall, an oversized length
        prefix raises once its four bytes are complete, the frames
        decoded before it form a prefix of the batch, and the decoder
        is dead for good."""
        stream = encode_frames(payloads) + \
            (MAX_FRAME_SIZE + 1).to_bytes(LENGTH_BYTES, "big") + \
            b"junk after the corruption"
        decoder = FrameDecoder()
        out = []
        pos = 0
        raised = False
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            try:
                out += decoder.feed(stream[pos:pos + step])
            except FramingError:
                raised = True
                break
            pos += step
        assert raised
        assert decoder.poisoned
        assert out == payloads[:len(out)]
        with pytest.raises(FramingError, match="poisoned"):
            decoder.feed(b"")


class TestZeroCopyFeed:
    def test_intra_chunk_frames_are_views(self):
        """Frames lying wholly inside one chunk come back as
        memoryviews into it — the zero-copy contract."""
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frames([b"one", b"two"]))
        assert [bytes(f) for f in frames] == [b"one", b"two"]
        assert all(isinstance(f, memoryview) for f in frames)

    def test_views_compare_equal_to_bytes(self):
        decoder = FrameDecoder()
        (frame,) = decoder.feed(encode_frame(b"payload"))
        assert frame == b"payload"

    def test_straddling_frame_is_materialized_bytes(self):
        """The one frame split across feeds is copied out — it must
        not alias the decoder's residual buffer, which mutates."""
        decoder = FrameDecoder()
        encoded = encode_frame(b"split across feeds")
        assert decoder.feed(encoded[:7]) == []
        (frame,) = decoder.feed(encoded[7:])
        assert frame == b"split across feeds"
        assert isinstance(frame, bytes)

    def test_compact_trims_consumed_residual(self):
        """Completing a straddler trims the residual at once: no
        consumed bytes linger in the decoder after the frame is out."""
        decoder = FrameDecoder()
        encoded = encode_frame(b"x" * 32)
        assert decoder.feed(encoded[:10]) == []
        assert decoder.buffered == 10
        assert decoder.feed(encoded[10:]) == [b"x" * 32]
        assert decoder.buffered == 0
        assert len(decoder._buffer) == 0
        assert decoder.feed(encode_frame(b"next")) == [b"next"]

    def test_compact_threshold_bounds_residual_memory(self):
        """A stream chunked so every frame straddles a chunk boundary
        must not grow the residual: it never holds more than one
        partial frame, since completing a straddler empties it and
        only the next frame's head is kept."""
        frame = encode_frame(b"y" * 10)
        decoder = FrameDecoder()
        out = []
        # Half a frame, then full-frame-sized chunks: every chunk
        # completes one straddler and starts the next.
        out += decoder.feed(frame[:7])
        for _ in range(40):
            out += decoder.feed(frame[7:] + frame[:7])
            assert decoder.buffered == 7
        assert out == [b"y" * 10] * 40
        assert all(isinstance(f, bytes) for f in out)
        assert decoder.feed(frame[7:]) == [b"y" * 10]
        assert decoder.buffered == 0
