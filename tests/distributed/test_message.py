"""Frame codec: round-trips and corruption detection."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.message import (
    FrameCodec,
    FrameError,
    StreamDecoder,
    decode_frame,
    encode_frame_oob,
)
from tests.sim.samples import scalar_samples

payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12)


class TestRoundTrip:
    def test_simple(self):
        frame = encode_frame_oob({"x": [1, 2.5, "three"]})
        obj, rest = decode_frame(frame)
        assert obj == {"x": [1, 2.5, "three"]}
        assert rest == b""

    @given(payloads)
    @settings(max_examples=60)
    def test_any_picklable(self, obj):
        decoded, rest = decode_frame(encode_frame_oob(obj))
        assert decoded == obj and rest == b""

    def test_simulation_task_roundtrips(self, neurospora_small):
        from repro.sim.task import make_tasks
        task = make_tasks(neurospora_small, 1, 5.0, 1.0, 1.0, seed=2)[0]
        task.run_quantum()
        clone, _ = decode_frame(encode_frame_oob(task))
        assert scalar_samples(clone.run_quantum()) == \
            scalar_samples(task.run_quantum())

    def test_concatenated_frames(self):
        rest = encode_frame_oob(1) + encode_frame_oob("two") + encode_frame_oob([3])
        out = []
        while rest:
            obj, rest = decode_frame(rest)
            out.append(obj)
        assert out == [1, "two", [3]]


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated header"):
            decode_frame(b"C5\x00")

    def test_truncated_payload(self):
        frame = encode_frame_oob("hello world")
        with pytest.raises(FrameError, match="truncated out-of-band"):
            decode_frame(frame[:-3])

    def test_bad_magic(self):
        frame = bytearray(encode_frame_oob(1))
        frame[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_flipped_payload_bit_detected(self):
        # no array segments: the whole payload is the checksummed control
        frame = bytearray(encode_frame_oob("payload data here"))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(frame))

    def test_trailing_bytes_returned(self):
        frame = encode_frame_oob(7) + b"extra"
        obj, rest = decode_frame(frame)
        assert obj == 7 and rest == b"extra"


class TestCodecAccounting:
    def test_counters(self):
        codec = FrameCodec("test")
        frame = b"".join(bytes(s) for s in codec.encode_segments([1, 2, 3]))
        assert StreamDecoder(codec).feed(frame) == [[1, 2, 3]]
        assert codec.messages_out == codec.messages_in == 1
        assert codec.bytes_out == codec.bytes_in == len(frame)


class TestStreamDecoder:
    """Partial-read buffering: the property sockets need (decode_frame
    raises on short reads; StreamDecoder waits for the rest)."""

    def test_whole_frame(self):
        decoder = StreamDecoder()
        assert decoder.feed(encode_frame_oob({"a": 1})) == [{"a": 1}]
        assert decoder.pending_bytes == 0

    def test_truncated_header_buffers(self):
        decoder = StreamDecoder()
        frame = encode_frame_oob("hello")
        assert decoder.feed(frame[:4]) == []          # mid-header
        assert decoder.pending_bytes == 4
        assert decoder.feed(frame[4:]) == ["hello"]
        assert decoder.pending_bytes == 0

    def test_truncated_payload_buffers(self):
        decoder = StreamDecoder()
        frame = encode_frame_oob(list(range(50)))
        assert decoder.feed(frame[:-7]) == []         # mid-payload
        assert decoder.feed(frame[-7:]) == [list(range(50))]

    def test_byte_at_a_time(self):
        decoder = StreamDecoder()
        out = []
        for i, byte in enumerate(encode_frame_oob(("x", 2.5))):
            out.extend(decoder.feed(bytes([byte])))
        assert out == [("x", 2.5)]

    def test_multi_frame_coalesced_read(self):
        decoder = StreamDecoder()
        data = encode_frame_oob(1) + encode_frame_oob("two") + encode_frame_oob([3])
        assert decoder.feed(data) == [1, "two", [3]]
        assert decoder.frames_decoded == 3

    def test_coalesced_plus_partial_tail(self):
        decoder = StreamDecoder()
        tail = encode_frame_oob("tail")
        data = encode_frame_oob("head") + tail[:5]
        assert decoder.feed(data) == ["head"]
        assert decoder.pending_bytes == 5
        assert decoder.feed(tail[5:]) == ["tail"]

    def test_corrupted_checksum_raises(self):
        decoder = StreamDecoder()
        frame = bytearray(encode_frame_oob("payload data"))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decoder.feed(bytes(frame))

    def test_bad_magic_raises(self):
        decoder = StreamDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(b"XXjunk that is not a frame header")

    def test_codec_accounting(self):
        codec = FrameCodec("rx")
        decoder = StreamDecoder(codec=codec)
        frame = encode_frame_oob([1, 2, 3])
        decoder.feed(frame[:3])
        decoder.feed(frame[3:])
        assert codec.messages_in == 1
        assert codec.bytes_in == len(frame)

    @given(st.lists(payloads, max_size=5), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_reassembles(self, objs, chunk):
        data = b"".join(encode_frame_oob(o) for o in objs)
        decoder = StreamDecoder()
        out = []
        for i in range(0, len(data), chunk):
            out.extend(decoder.feed(data[i:i + chunk]))
        assert out == objs
        assert decoder.pending_bytes == 0
