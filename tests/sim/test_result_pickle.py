"""Pickling of result blocks and cuts.

A quantum's one stream item, a :class:`ResultBlock`, crosses process and
socket boundaries as a few scalars plus its two arrays (out of band under
protocol 5); a block with no grid points -- a bare done or progress
marker, most of a fine-grained scalar run's quanta -- ships no arrays at
all.
"""

import pickle

import numpy as np
import pytest

from repro.distributed.message import (
    FrameCodec,
    StreamDecoder,
    decode_frame,
    encode_frame_oob,
    encode_frame_segments,
    segments_nbytes,
)
from repro.sim.task import ResultBlock
from repro.sim.trajectory import Cut, CutBlock


def result_block(n_members=3, n=2, n_obs=3, done=False):
    values = np.arange(n_members * n * n_obs, dtype=float)
    return ResultBlock(range(5, 5 + n_members), 7, np.arange(n) * 0.5,
                       values.reshape(n_members, n, n_obs), done)


def codec_roundtrip(item):
    """Through the cluster runtime's frame codec and stream decoder."""
    (clone,) = StreamDecoder().feed(
        b"".join(FrameCodec("test").encode_segments(item)))
    return clone


def assert_blocks_equal(a, b):
    assert (b.task_ids, b.grid_start, b.done) == \
        (a.task_ids, a.grid_start, a.done)
    assert b._times.shape == a._times.shape
    assert b._values.shape == a._values.shape
    assert np.array_equal(b._times, a._times)
    assert np.array_equal(b._values, a._values)


class TestQuantumResultPickle:
    """A quantum's result, which is always a :class:`ResultBlock`."""

    def test_one_sample_block_roundtrip(self):
        """A scalar task's typical quantum: one member, one grid point."""
        block = ResultBlock(range(4, 5), 9, np.array([4.5]),
                            np.array([[[1.0, 2.0]]]), False)
        for clone in (pickle.loads(pickle.dumps(block, 5)),
                      codec_roundtrip(block)):
            assert isinstance(clone.task_ids, range)
            assert_blocks_equal(block, clone)

    def test_empty_result_roundtrip(self):
        """A done marker carries no arrays through pickle or the frame
        codec, and comes back with correctly shaped empty ones."""
        marker = result_block(n_members=2, n=0, n_obs=3, done=True)
        assert len(pickle.dumps(marker, 5)) < 100
        assert len(encode_frame_segments(marker)) == 2  # no buffer
        for clone in (pickle.loads(pickle.dumps(marker, 5)),
                      codec_roundtrip(marker)):
            assert len(clone) == 0 and clone.done
            assert_blocks_equal(marker, clone)

    def test_arrays_go_out_of_band(self):
        """Under protocol 5 the value array leaves as a raw buffer, not
        through the pickle stream."""
        block = result_block(n_members=1, n=256, n_obs=4)
        segments = encode_frame_segments(block)
        control_bytes = segments_nbytes(segments[:2])
        total = segments_nbytes(segments)
        assert total - control_bytes >= block._values.nbytes
        assert control_bytes < block._values.nbytes / 4

    def test_oob_frame_roundtrip(self):
        block = result_block(n_members=2, n=128, n_obs=2)
        clone, rest = decode_frame(encode_frame_oob(block))
        assert rest == b""
        assert_blocks_equal(block, clone)

    def test_release_without_segment_is_noop(self):
        block = result_block()
        block.release()
        block.release()
        assert block._values is not None

    def test_release_releases_attached_segment_once(self):
        class FakeSegment:
            released = 0

            def release(self):
                self.released += 1

        segment = FakeSegment()
        block = result_block()
        block.attach_segment(segment)
        block.release()
        block.release()
        assert segment.released == 1
        assert block._values is None and block._times is None

    def test_segment_not_pickled(self):
        block = result_block()
        block.attach_segment(object())  # unpicklable on purpose
        clone = pickle.loads(pickle.dumps(block))
        assert clone._segment is None
        assert np.array_equal(clone._values, block._values)

    def test_member_ids_must_be_contiguous(self):
        assert result_block().task_ids == range(5, 8)
        assert ResultBlock((3, 4), 0, np.zeros(1), np.zeros((2, 1, 1)),
                           False).task_ids == range(3, 5)
        for ids in ((0, 2), (1, 0), range(0, 4, 2)):
            with pytest.raises(ValueError, match="contiguous"):
                ResultBlock(ids, 0, np.zeros(1),
                            np.zeros((len(ids), 1, 1)), False)


class TestCutPickle:
    def test_array_form_stays_lazy(self):
        cut = Cut(4, 2.0, data=np.arange(12, dtype=float).reshape(4, 3))
        blob = pickle.dumps(cut)
        assert cut._values is None
        clone = pickle.loads(blob)
        assert clone._values is None
        assert clone == cut

    def test_both_views_ship_once(self):
        cut = Cut(1, 0.5, data=np.ones((8, 2)))
        single = len(pickle.dumps(cut))
        cut.values  # materialise the tuple view
        assert len(pickle.dumps(cut)) == single

    def test_values_form_roundtrip(self):
        cut = Cut(0, 0.0, values=[(1.0, 2.0), (3.0, 4.0)])
        clone = pickle.loads(pickle.dumps(cut))
        assert clone._data is None
        assert clone.values == [(1.0, 2.0), (3.0, 4.0)]

    def test_cut_block_roundtrip(self):
        block = CutBlock(3, np.array([1.5, 2.0]),
                         np.arange(12, dtype=float).reshape(2, 3, 2))
        clone = pickle.loads(pickle.dumps(block))
        assert clone.grid_start == 3
        assert np.array_equal(clone.times, block.times)
        assert np.array_equal(clone.data, block.data)


class TestTaskStateOverOobFrames:
    """The cluster's replay guarantee must survive the zero-copy format:
    a task decoded from an out-of-band frame continues bit-identically,
    which requires its state arrays to come back *writable*."""

    @pytest.fixture
    def batch_task(self, neurospora_small):
        from repro.sim.task import make_batch_tasks
        return make_batch_tasks(neurospora_small, 8, 6.0, 2.0, 0.5,
                                seed=3, batch_size=8)[0]

    def test_batch_task_roundtrips_and_continues(self, batch_task):
        batch_task.run_quantum()  # mid-run state is the hard case
        clone, rest = decode_frame(encode_frame_oob(batch_task))
        assert rest == b""
        expected = batch_task.run_quantum()
        actual = clone.run_quantum()  # mutates decoded arrays in place
        assert_blocks_equal(expected, actual)
