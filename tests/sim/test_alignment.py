"""Trajectory alignment: interleaved result blocks -> in-order cuts.

Parametrised over both aligners: the columnar :class:`TrajectoryAligner`
(emits :class:`CutBlock` batches) and the scalar oracle
:class:`ScalarTrajectoryAligner` (emits one :class:`Cut` per grid
point).  The capture helper flattens blocks so every test asserts the
same per-cut sequence against both implementations.  Streams are
interleaved across trajectories but in grid order per trajectory, the
order every runtime delivers; the columnar aligner refuses any other.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ff.node import Node
from repro.sim.alignment import ScalarTrajectoryAligner, TrajectoryAligner
from repro.sim.task import ResultBlock
from repro.sim.trajectory import Cut, CutBlock, iter_cuts

ALIGNERS = (TrajectoryAligner, ScalarTrajectoryAligner)


class _Capture:
    """Binds an outbox so the aligner can be driven directly."""

    def __init__(self, node: Node):
        self.items = []
        node._outbox = self

    def send(self, item):
        self.items.append(item)

    @property
    def cuts(self):
        """Emissions flattened to cuts (CutBlock -> constituent cuts)."""
        return list(iter_cuts(self.items))


def block(first, g0, values, done=False):
    """A block of ``len(values)`` members from task ``first`` on, each
    reporting grids ``g0 ..``: ``values[member][k]`` is one sample's
    observable row (or its one observable); grid ``g`` is at time
    ``float(g)``."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 2:  # one observable
        vals = vals[..., None]
    times = np.arange(g0, g0 + vals.shape[1], dtype=float)
    return ResultBlock(range(first, first + len(vals)), g0, times, vals,
                       done)


def result(task_id, samples, done=False):
    """One trajectory's quantum: ``(grid, value)`` pairs, consecutive."""
    g0 = samples[0][0] if samples else 0
    assert [g for g, _ in samples] == list(range(g0, g0 + len(samples)))
    return block(task_id, g0, [[v for _, v in samples]], done)


def col_result(task_id, g0, values_2d, done=False):
    """One trajectory's quantum from ``(n_samples, n_obs)`` rows."""
    return block(task_id, g0, [values_2d], done)


@pytest.mark.parametrize("aligner_cls", ALIGNERS)
class TestAlignment:
    def test_cut_emitted_when_all_reported(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 10)]))
        assert out.items == []
        aligner.svc(result(1, [(0, 20)]))
        assert len(out.cuts) == 1
        cut = out.cuts[0]
        assert isinstance(cut, Cut)
        assert cut.grid_index == 0
        assert cut.values == [(10.0,), (20.0,)]

    def test_values_ordered_by_task_id(self, aligner_cls):
        aligner = aligner_cls(3)
        out = _Capture(aligner)
        aligner.svc(result(2, [(0, 2)]))
        aligner.svc(result(0, [(0, 0)]))
        aligner.svc(result(1, [(0, 1)]))
        assert out.cuts[0].values == [(0.0,), (1.0,), (2.0,)]

    def test_cuts_in_grid_order_despite_skew(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        # trajectory 0 races ahead three grid points
        aligner.svc(result(0, [(0, 1), (1, 1), (2, 1)]))
        assert out.items == []
        aligner.svc(result(1, [(0, 2), (1, 2)]))
        assert [c.grid_index for c in out.cuts] == [0, 1]
        aligner.svc(result(1, [(2, 2)]))
        assert [c.grid_index for c in out.cuts] == [0, 1, 2]

    def test_random_interleaving_property(self, aligner_cls):
        """Any interleaving of per-trajectory streams yields the full
        in-order cut sequence."""
        rng = random.Random(5)
        n_traj, n_grid = 4, 12
        streams = {
            t: [(g, t * 100 + g) for g in range(n_grid)]
            for t in range(n_traj)
        }
        aligner = aligner_cls(n_traj)
        out = _Capture(aligner)
        pending = {t: 0 for t in range(n_traj)}
        while any(v < n_grid for v in pending.values()):
            t = rng.choice([k for k, v in pending.items() if v < n_grid])
            take = rng.randint(1, min(3, n_grid - pending[t]))
            chunk = streams[t][pending[t]:pending[t] + take]
            pending[t] += take
            aligner.svc(result(t, chunk))
        assert [c.grid_index for c in out.cuts] == list(range(n_grid))
        for cut in out.cuts:
            assert cut.values == [
                (float(t * 100 + cut.grid_index),) for t in range(n_traj)]

    def test_duplicate_report_rejected(self, aligner_cls):
        aligner = aligner_cls(2)
        _Capture(aligner)
        aligner.svc(result(0, [(0, 1)]))
        with pytest.raises(ValueError, match="twice"):
            aligner.svc(result(0, [(0, 1)]))

    def test_report_after_emit_rejected(self, aligner_cls):
        aligner = aligner_cls(1)
        _Capture(aligner)
        aligner.svc(result(0, [(0, 1)]))  # cut 0 emitted (n=1)
        with pytest.raises(ValueError, match="already emitted"):
            aligner.svc(result(0, [(0, 2)]))

    def test_type_check(self, aligner_cls):
        aligner = aligner_cls(1)
        with pytest.raises(TypeError):
            aligner.svc("not a result")

    def test_partial_tail_dropped_at_end(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 1), (1, 1)]))
        aligner.svc(result(1, [(0, 2)]))
        aligner.svc_end()
        assert [c.grid_index for c in out.cuts] == [0]
        assert aligner.max_buffered >= 1

    def test_validation(self, aligner_cls):
        with pytest.raises(ValueError):
            aligner_cls(0)


class TestColumnarBatching:
    """CutBlock-specific behaviour of the columnar aligner."""

    def test_contiguous_ready_cuts_emit_one_block(self):
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 1), (1, 1), (2, 1)]))
        aligner.svc(result(1, [(0, 2), (1, 2), (2, 2)]))
        assert len(out.items) == 1
        block = out.items[0]
        assert isinstance(block, CutBlock)
        assert block.grid_start == 0
        assert len(block) == 3
        assert block.data.shape == (3, 2, 1)
        assert aligner.blocks_emitted == 1
        assert aligner.cuts_emitted == 3

    def test_block_cuts_are_views(self):
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 10), (1, 11)]))
        aligner.svc(result(1, [(0, 20), (1, 21)]))
        block = out.items[0]
        assert [c.values for c in block] == [
            [(10.0,), (20.0,)], [(11.0,), (21.0,)]]

    def test_scalar_and_columnar_agree_on_random_stream(self):
        """Full equivalence under a random interleaving: identical cut
        sequences, identical max_buffered."""
        rng = random.Random(17)
        n_traj, n_grid = 5, 20
        chunks = []
        pending = {t: 0 for t in range(n_traj)}
        while any(v < n_grid for v in pending.values()):
            t = rng.choice([k for k, v in pending.items() if v < n_grid])
            take = rng.randint(1, min(4, n_grid - pending[t]))
            chunk = [(g, t * 1000 + g * 7)
                     for g in range(pending[t], pending[t] + take)]
            pending[t] += take
            chunks.append((t, chunk))

        columnar = TrajectoryAligner(n_traj)
        scalar = ScalarTrajectoryAligner(n_traj)
        out_c, out_s = _Capture(columnar), _Capture(scalar)
        for t, chunk in chunks:
            columnar.svc(result(t, chunk))
            scalar.svc(result(t, chunk))
        assert len(out_c.cuts) == len(out_s.cuts) == n_grid
        for c, s in zip(out_c.cuts, out_s.cuts):
            assert c.grid_index == s.grid_index
            assert c.time == s.time
            assert c.values == s.values
        assert columnar.max_buffered == scalar.max_buffered
        assert columnar.cuts_emitted == scalar.cuts_emitted

    def test_fast_regime_duplicate_detected_after_demote(self):
        """After an in-order prefix, a block starting below its task's
        high-water mark is a duplicate report, refused ("twice")."""
        aligner = TrajectoryAligner(2)
        _Capture(aligner)
        aligner.svc(col_result(0, 0, [[1.0], [2.0]]))   # grids 0,1
        aligner.svc(col_result(1, 0, [[9.0]]))          # grid 0 -> emit 0
        with pytest.raises(ValueError, match="grid point 1 twice"):
            aligner.svc(col_result(0, 1, [[5.0]]))

    def test_fast_regime_stale_detected_after_demote(self):
        aligner = TrajectoryAligner(1)
        out = _Capture(aligner)
        aligner.svc(col_result(0, 0, [[1.0], [2.0]]))   # emits 0,1
        assert len(out.cuts) == 2
        with pytest.raises(ValueError, match="already emitted"):
            aligner.svc(col_result(0, 0, [[1.0]]))

    def test_in_order_prefix_then_gap_raises(self):
        """A task that jumps ahead, leaving a gap, is refused ("gap");
        the cuts emitted before it are exactly the oracle's."""
        spec = [
            (0, 0, [10, 11]), (1, 0, [20, 21]), (2, 0, [30, 31]),
            (0, 2, [12, 13]),
        ]

        def feed(aligner):
            out = _Capture(aligner)
            for task_id, g0, vals in spec:
                aligner.svc(col_result(task_id, g0,
                                       [[float(v)] for v in vals]))
            return out

        columnar = TrajectoryAligner(3)
        out_c = feed(columnar)
        out_s = feed(ScalarTrajectoryAligner(3))
        assert [(c.grid_index, c.values) for c in out_c.cuts] == \
            [(c.grid_index, c.values) for c in out_s.cuts]
        assert len(out_c.cuts) == 2
        with pytest.raises(ValueError, match=r"task 1 skipped grid points "
                                             r"2\.\.3 \(gap\)"):
            columnar.svc(col_result(1, 4, [[24.0]]))  # skips grids 2, 3

    def test_columnar_results_feed_without_row_hop(self):
        """One-member blocks (what a scalar task ships) land in the cut
        matrix with one slice each."""
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        for task_id in range(2):
            aligner.svc(ResultBlock(
                range(task_id, task_id + 1), 0, np.array([0.0, 0.5, 1.0]),
                np.array([[[task_id + 0.0], [task_id + 0.5],
                           [task_id + 1.0]]]), False))
        assert len(out.items) == 1
        assert [c.values for c in out.items[0]] == [
            [(0.0,), (1.0,)], [(0.5,), (1.5,)], [(1.0,), (2.0,)]]

    def test_wide_block_lands_in_one_call(self):
        """A batch quantum's block covers its members in one ``svc``;
        the cut completes once the other trajectories report."""
        aligner = TrajectoryAligner(4)
        out = _Capture(aligner)
        aligner.svc(block(0, 0, [[[1.0], [2.0]], [[3.0], [4.0]],
                                 [[5.0], [6.0]]]))
        assert out.items == []
        aligner.svc(result(3, [(0, 7.0), (1, 8.0)]))
        assert [c.values for c in out.cuts] == [
            [(1.0,), (3.0,), (5.0,), (7.0,)],
            [(2.0,), (4.0,), (6.0,), (8.0,)]]

    def test_block_members_must_share_their_mark(self):
        aligner = TrajectoryAligner(3)
        _Capture(aligner)
        aligner.svc(result(1, [(0, 1.0)]))
        with pytest.raises(ValueError, match="task 1 reported grid point "
                                             "0 twice"):
            aligner.svc(block(0, 0, [[1.0], [2.0], [3.0]]))
        with pytest.raises(ValueError, match="task 0 skipped"):
            aligner.svc(block(0, 1, [[1.0], [2.0], [3.0]]))


@pytest.mark.parametrize("aligner_cls", ALIGNERS)
@pytest.mark.parametrize("first, n_members", [(-1, 1), (1, 2), (2, 1)])
def test_out_of_range_ids_rejected_before_any_write(aligner_cls, first,
                                                    n_members):
    """Ids outside ``[0, n_trajectories)`` are refused before anything
    is written: no cut ever carries a trajectory that did not report."""
    aligner = aligner_cls(2)
    out = _Capture(aligner)
    bad = block(first, 0, [[99.0]] * n_members)
    with pytest.raises(ValueError, match="outside"):
        aligner.svc(bad)
    aligner.svc(result(0, [(0, 1.0)]))
    assert out.items == []  # trajectory 1 never reported
    aligner.svc(result(1, [(0, 2.0)]))
    assert [c.values for c in out.cuts] == [[(1.0,), (2.0,)]]


@st.composite
def in_order_streams(draw):
    """Tasks over contiguous id ranges of random widths, each reporting
    its grid in quanta of random length, with empty markers in between,
    and ending with a done marker; quanta interleaved at random across
    tasks but in grid order per task."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n_grid = draw(st.integers(1, 12))
    n_obs = draw(st.integers(1, 3))
    tasks, first = [], 0
    for width in widths:
        quanta, g = [], 0
        while g < n_grid:
            if draw(st.booleans()):
                quanta.append((first, width, g, 0, False))
            length = draw(st.integers(1, min(4, n_grid - g)))
            quanta.append((first, width, g, length, False))
            g += length
        quanta.append((first, width, g, 0, True))
        tasks.append(quanta)
        first += width
    order = []
    cursors = [0] * len(tasks)
    while any(c < len(q) for c, q in zip(cursors, tasks)):
        live = [i for i, q in enumerate(tasks) if cursors[i] < len(q)]
        i = draw(st.sampled_from(live))
        order.append(tasks[i][cursors[i]])
        cursors[i] += 1
    return first, n_obs, order


@given(stream=in_order_streams())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_oracle_on_in_order_interleavings(stream):
    n_traj, n_obs, order = stream
    values = np.arange(n_traj * 12 * n_obs, dtype=float).reshape(
        n_traj, 12, n_obs)
    blocks = [
        ResultBlock(range(first, first + width), g0,
                    np.arange(g0, g0 + length) * 0.5,
                    values[first:first + width, g0:g0 + length], done)
        for first, width, g0, length, done in order]
    columnar = TrajectoryAligner(n_traj)
    scalar = ScalarTrajectoryAligner(n_traj)
    out_c, out_s = _Capture(columnar), _Capture(scalar)
    for item in blocks:
        columnar.svc(item)
        scalar.svc(item)
    assert [(c.grid_index, c.time, c.values) for c in out_c.cuts] == \
        [(c.grid_index, c.time, c.values) for c in out_s.cuts]
    assert columnar.cuts_emitted == scalar.cuts_emitted
    assert columnar.max_buffered == scalar.max_buffered
