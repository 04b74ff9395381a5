"""Coalesced result transport: ResultBlock over frames and shared pages.

The sweep plane ships one :class:`~repro.sim.task.ResultBlock` per
quantum instead of per-member results.  These tests pin the transport
contract: blocks round-trip bit-identically through pickles, the
cluster's v2 out-of-band frames (any mix of block shapes, any frame
order, truncation detected) and the processes backend's shared-memory
result ring (zero leaked segments after release).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.message import (
    FrameError,
    decode_frame,
    decode_stream,
    encode_frame_oob,
)
from repro.distributed.net import ResultMsg
from repro.distributed.shm import (leaked_segments, make_prefix,
                                   map_results, publish_results,
                                   sweep_orphans)
from repro.sim.task import QuantumResult, ResultBlock


def make_block(n_members=5, n_grid=4, n_obs=3, grid_start=2,
               done=False, seed=0, first_id=10):
    rng = np.random.default_rng(seed)
    return ResultBlock(
        task_ids=range(first_id, first_id + n_members),
        grid_start=grid_start,
        times=np.arange(n_grid, dtype=float) * 0.5,
        values=rng.random((n_members, n_grid, n_obs)),
        end_times=rng.random(n_members) * 10,
        steps=rng.integers(0, 1000, n_members),
        done=done)


def assert_blocks_equal(a: ResultBlock, b: ResultBlock) -> None:
    assert b.task_ids == a.task_ids
    assert b.grid_start == a.grid_start
    assert b.done == a.done
    assert b._times.tobytes() == a._times.tobytes()
    assert b._values.tobytes() == a._values.tobytes()
    assert np.array_equal(b._end_times, a._end_times)
    assert np.array_equal(b._steps, a._steps)


class TestResultBlock:
    def test_len_counts_total_samples(self):
        block = make_block(n_members=5, n_grid=4)
        assert len(block) == 20
        assert block.n_members == 5 and block.n_grid == 4

    def test_empty_done_marker_is_truthy_to_filters(self):
        block = make_block(n_members=3, n_grid=0, done=True)
        # the engine forwards when `len(r) or r.done` -- pin both halves
        assert len(block) == 0 and block.done

    def test_unpack_yields_zero_copy_views(self):
        block = make_block()
        members = list(block.unpack())
        assert [m.task_id for m in members] == list(block.task_ids)
        for i, member in enumerate(members):
            assert member._values.base is block._values
            assert np.array_equal(member._values, block._values[i])
            assert member._times is block._times
            assert member.grid_start == block.grid_start

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResultBlock(range(3), 0, np.zeros(2), np.zeros((2, 2, 1)),
                        np.zeros(3), np.zeros(3, dtype=np.int64), False)
        with pytest.raises(ValueError):
            ResultBlock(range(2), 0, np.zeros(3), np.zeros((2, 2, 1)),
                        np.zeros(2), np.zeros(2, dtype=np.int64), False)

    def test_pickle_roundtrip(self):
        block = make_block(done=True)
        assert_blocks_equal(block, pickle.loads(pickle.dumps(block)))


class TestCoalescedFrames:
    def test_result_msg_roundtrip(self):
        msg = ResultMsg(3, None, (make_block(),))
        clone, rest = decode_frame(encode_frame_oob(msg))
        assert rest == b""
        assert_blocks_equal(msg.results[0], clone.results[0])

    def test_mixed_members_and_blocks(self):
        """A wire message may carry blocks and loose member results."""
        loose = QuantumResult(99, None, time=1.0, steps=7, done=False,
                              grid_start=0,
                              times=np.array([0.0, 0.5]),
                              values=np.ones((2, 3)))
        msg = ResultMsg(0, None, (make_block(), loose))
        clone, _ = decode_frame(encode_frame_oob(msg))
        assert_blocks_equal(msg.results[0], clone.results[0])
        assert clone.results[1]._values.tobytes() == \
            loose._values.tobytes()

    def test_truncated_frame_detected(self):
        frame = encode_frame_oob(ResultMsg(0, None, (make_block(),)))
        with pytest.raises(FrameError):
            decode_frame(frame[:-5])

    @given(shapes=st.lists(
        st.tuples(st.integers(1, 8), st.integers(0, 6),
                  st.integers(1, 4), st.booleans()),
        min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_any_block_mix_roundtrips(self, shapes):
        """Mixed block sizes -- including empty quanta -- in one
        message survive the out-of-band path byte for byte."""
        blocks = tuple(
            make_block(n_members=m, n_grid=g, n_obs=o, done=done,
                       seed=i, first_id=100 * i)
            for i, (m, g, o, done) in enumerate(shapes))
        clone, rest = decode_frame(
            encode_frame_oob(ResultMsg(1, None, blocks)))
        assert rest == b""
        for original, decoded in zip(blocks, clone.results):
            assert_blocks_equal(original, decoded)

    @given(order=st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_frame_order_is_preserved(self, order):
        """Concatenated frames decode in stream order regardless of
        block content ordering."""
        frames = b"".join(
            encode_frame_oob(ResultMsg(i, None, (make_block(
                n_members=2 + i, seed=i),)))
            for i in order)
        decoded = list(decode_stream(frames))
        assert [m.worker_id for m in decoded] == list(order)
        assert [m.results[0].n_members for m in decoded] == \
            [2 + i for i in order]


class TestCoalescedSharedPages:
    def test_publish_map_roundtrip_and_release(self):
        prefix = make_prefix()
        blocks = [make_block(n_members=40, n_grid=8, seed=1),
                  make_block(n_members=16, n_grid=8, seed=2,
                             first_id=50)]
        try:
            shm_block = publish_results(blocks, prefix)
            assert shm_block.name is not None  # big enough for pages
            mapped = map_results(shm_block)
            assert len(mapped) == 2
            for original, view in zip(blocks, mapped):
                assert isinstance(view, ResultBlock)
                assert_blocks_equal(original, view)
            # unpacked members are views over the shared pages; the
            # block owns the segment and one release frees it
            for view in mapped:
                for member in view.unpack():
                    member.release()  # a no-op: views own nothing
                assert leaked_segments(prefix) == [shm_block.name]
                view.release()
            assert leaked_segments(prefix) == []
        finally:
            sweep_orphans(prefix)

    def test_empty_done_block_rides_inline(self):
        prefix = make_prefix()
        block = make_block(n_members=3, n_grid=0, done=True)
        try:
            shm_block = publish_results([block], prefix)
            assert shm_block.name is None  # nothing worth sharing
            mapped = map_results(shm_block)
            assert mapped[0].done and len(mapped[0]) == 0
        finally:
            sweep_orphans(prefix)
