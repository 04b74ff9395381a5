"""Lazy pickling of results and cuts.

The columnar wire format only pays off if serialisation preserves it: an
array-form :class:`QuantumResult` must cross process and socket
boundaries as two arrays plus scalars, never materialising the
per-sample Python tuples, and a lazily derived second view must be
dropped rather than shipped twice.
"""

import pickle

import numpy as np
import pytest

from repro.distributed.message import (
    decode_frame,
    encode_frame_oob,
    encode_frame_segments,
    segments_nbytes,
)
from repro.sim.task import QuantumResult, ResultBlock
from repro.sim.trajectory import Cut, CutBlock


def columnar_result(n=64, n_obs=3, task_id=5, grid_start=7):
    times = np.arange(n, dtype=float) * 0.5
    values = np.arange(n * n_obs, dtype=float).reshape(n, n_obs)
    return QuantumResult(task_id, None, time=32.0, steps=400, done=False,
                         grid_start=grid_start, times=times, values=values)


def result_block(n_members=3, n=2, n_obs=3):
    values = np.arange(n_members * n * n_obs, dtype=float)
    return ResultBlock(range(n_members), 7, np.arange(n) * 0.5,
                       values.reshape(n_members, n, n_obs),
                       np.full(n_members, 32.0), np.full(n_members, 400),
                       False)


class TestQuantumResultPickle:
    def test_array_form_roundtrip_stays_lazy(self):
        result = columnar_result()
        blob = pickle.dumps(result)
        # pickling must not have materialised the row view...
        assert result._samples is None
        clone = pickle.loads(blob)
        # ...and neither has the clone
        assert clone._samples is None
        assert clone.grid_start == result.grid_start
        assert clone.task_id == result.task_id
        assert clone.time == result.time
        assert clone.steps == result.steps
        assert clone.done == result.done
        g, t, v = clone.columnar()
        g0, t0, v0 = result.columnar()
        assert np.array_equal(g, g0)
        assert np.array_equal(t, t0)
        assert np.array_equal(v, v0)

    def test_row_view_still_derivable_after_roundtrip(self):
        result = columnar_result(n=4, n_obs=2)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.samples == result.samples

    def test_row_form_roundtrip(self):
        samples = [(0, 0.0, (1.0, 2.0)), (1, 0.5, (3.0, 4.0))]
        result = QuantumResult(2, samples, time=1.0, steps=10, done=True)
        clone = pickle.loads(pickle.dumps(result))
        assert clone._values is None  # stays in row form
        assert clone.samples == samples
        assert clone.done and clone.steps == 10

    def test_row_form_with_derived_arrays_ships_rows_once(self):
        """A row result whose columnar view was materialised must ship
        the authoritative rows only (grid_start stays None)."""
        samples = [(3, 1.5, (9.0,)), (4, 2.0, (8.0,))]
        result = QuantumResult(1, samples, time=2.0, steps=5, done=False)
        result.columnar()  # derive the arrays
        clone = pickle.loads(pickle.dumps(result))
        assert clone._values is None
        assert clone.samples == samples

    def test_empty_result_roundtrip(self):
        result = QuantumResult(3, [], time=4.0, steps=7, done=True)
        clone = pickle.loads(pickle.dumps(result))
        assert len(clone) == 0 and clone.done

    def test_arrays_go_out_of_band(self):
        """Under protocol 5 the value matrix leaves as a raw buffer, not
        through the pickle stream."""
        result = columnar_result(n=256, n_obs=4)
        segments = encode_frame_segments(result)
        control_bytes = segments_nbytes(segments[:2])
        total = segments_nbytes(segments)
        assert total - control_bytes >= result._values.nbytes
        assert control_bytes < result._values.nbytes / 4

    def test_oob_frame_roundtrip(self):
        result = columnar_result(n=128, n_obs=2)
        clone, rest = decode_frame(encode_frame_oob(result))
        assert rest == b""
        assert clone._samples is None
        assert np.array_equal(clone._values, result._values)
        assert np.array_equal(clone._times, result._times)

    def test_release_without_segment_is_noop(self):
        result = columnar_result(n=2)
        result.release()
        result.release()

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
        for a, b in zip(actual.unpack(), expected.unpack()):
            ga, ta, va = a.columnar()
            gb, tb, vb = b.columnar()
            assert np.array_equal(ga, gb)
            assert np.array_equal(ta, tb)
            assert np.array_equal(va, vb)
