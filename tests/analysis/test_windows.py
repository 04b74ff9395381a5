"""Sliding-window generation.

Parametrised over the columnar ring-buffer :class:`SlidingWindowNode`
and the scalar oracle :class:`ScalarSlidingWindowNode`: both must emit
the same window sequence for any stream of cut blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.windows import SlidingWindowNode, Window
from repro.sim.trajectory import CutBlock
from tests.oracles.analysis import ScalarSlidingWindowNode

NODES = (SlidingWindowNode, ScalarSlidingWindowNode)


class _Capture:
    def __init__(self, node):
        self.items = []
        node._outbox = self

    def send(self, item):
        self.items.append(item)


def blocks(n, block_len=1):
    """``n`` one-trajectory cuts (grid ``g`` at time ``g`` with value
    ``g``) in blocks of ``block_len``."""
    values = np.arange(n, dtype=float)
    return [CutBlock(g0, values[g0:g0 + block_len],
                     values[g0:g0 + block_len, None, None])
            for g0 in range(0, n, block_len)]


def feed(node, n):
    out = _Capture(node)
    for block in blocks(n):
        node.svc(block)
    node.svc_end()
    return out.items


def starts(windows):
    return [int(w.grid_indices[0]) for w in windows]


def covered(windows):
    return [g for w in windows for g in w.grid_indices.tolist()]


@pytest.mark.parametrize("node_cls", NODES)
class TestTumblingWindows:
    def test_exact_multiple(self, node_cls):
        windows = feed(node_cls(size=5), 10)
        assert [len(w) for w in windows] == [5, 5]
        assert [w.index for w in windows] == [0, 1]

    def test_partial_tail_emitted(self, node_cls):
        windows = feed(node_cls(size=5), 12)
        assert [len(w) for w in windows] == [5, 5, 2]

    def test_windows_cover_stream_in_order(self, node_cls):
        windows = feed(node_cls(size=4), 10)
        assert covered(windows) == list(range(10))

    def test_fewer_cuts_than_window(self, node_cls):
        windows = feed(node_cls(size=100), 3)
        assert len(windows) == 1 and len(windows[0]) == 3

    def test_empty_stream(self, node_cls):
        assert feed(node_cls(size=5), 0) == []


@pytest.mark.parametrize("node_cls", NODES)
class TestOverlappingWindows:
    def test_slide_smaller_than_size(self, node_cls):
        windows = feed(node_cls(size=4, slide=2), 8)
        assert starts(windows)[:3] == [0, 2, 4]
        assert all(len(w) == 4 for w in windows[:3])

    def test_overlap_shares_cuts(self, node_cls):
        windows = feed(node_cls(size=4, slide=2), 6)
        assert windows[0].grid_indices.tolist() == [0, 1, 2, 3]
        assert windows[1].grid_indices.tolist() == [2, 3, 4, 5]

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 40))
    @settings(max_examples=60)
    def test_every_cut_appears(self, node_cls, size, slide_offset, n):
        slide = min(size, 1 + slide_offset % size)
        node = node_cls(size=size, slide=slide)
        windows = feed(node, n)
        assert set(covered(windows)) == set(range(n))
        # window indices are consecutive
        assert [w.index for w in windows] == list(range(len(windows)))

    def test_large_slide_long_stream(self, node_cls):
        """Regression for the per-slide pop loop: a large slide over a
        long stream must still produce exactly the right windows (and in
        the columnar node the ring must compact correctly many times)."""
        size, slide, n = 500, 499, 5000
        windows = feed(node_cls(size=size, slide=slide), n)
        expected_full = (n - size) // slide + 1
        assert [len(w) for w in windows[:expected_full]] == (
            [size] * expected_full)
        assert starts(windows[:expected_full]) == [
            i * slide for i in range(expected_full)]
        assert set(covered(windows)) == set(range(n))


class TestColumnarScalarEquivalence:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 60),
           st.integers(1, 7))
    @settings(max_examples=40)
    def test_same_windows_any_blocking(self, size, slide_offset, n,
                                       block_len):
        """Feeding the same stream -- as single cuts to the oracle and as
        arbitrary CutBlock batches to the ring -- yields identical
        windows."""
        slide = min(size, 1 + slide_offset % size)
        scalar = ScalarSlidingWindowNode(size=size, slide=slide)
        columnar = SlidingWindowNode(size=size, slide=slide)
        out_s = _Capture(scalar)
        out_c = _Capture(columnar)
        for block in blocks(n):
            scalar.svc(block.cut(0))
        scalar.svc_end()
        for block in blocks(n, block_len):
            columnar.svc(block)
        columnar.svc_end()
        assert len(out_s.items) == len(out_c.items)
        for ws, wc in zip(out_s.items, out_c.items):
            assert ws.index == wc.index
            assert ws.grid_indices.tobytes() == wc.grid_indices.tobytes()
            assert ws.times.tobytes() == wc.times.tobytes()
            assert ws.data.tobytes() == wc.data.tobytes()

    def test_ring_precomputes_stats(self):
        node = SlidingWindowNode(size=4, slide=2)
        windows = feed(node, 8)
        for window in windows:
            assert len(window.cut_stats) == len(window)
            for stat, grid in zip(window.cut_stats,
                                  window.grid_indices.tolist()):
                assert stat.grid_index == grid
                assert stat.mean == (float(grid),)

    def test_type_check(self):
        with pytest.raises(TypeError):
            SlidingWindowNode(size=2).svc("nope")
        with pytest.raises(TypeError, match="received Cut"):
            # the aligner ships blocks only: a bare cut is refused
            SlidingWindowNode(size=2).svc(blocks(1)[0].cut(0))
        with pytest.raises(TypeError):
            ScalarSlidingWindowNode(size=2).svc("nope")


class TestWindowViews:
    """Windows are read-only views of the ring's slabs, not copies."""

    def test_views_are_read_only(self):
        windows = feed(SlidingWindowNode(size=4, slide=2), 20)
        assert windows
        for window in windows:
            for array in (window.data, window.times, window.grid_indices):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_held_windows_outlive_compactions(self):
        """Every window of a long slide-1 stream, all held to the end,
        still equals the oracle's byte for byte, and they pin at most one
        slab per ``size - slide + 1`` windows (plus the live one): the
        memory bound of a backed-up stat farm, without timing."""
        size, slide, n = 8, 1, 600
        rng = np.random.default_rng(7)
        data = rng.normal(100.0, 20.0, size=(n, 3, 2))
        times = np.arange(n) * 0.25
        ring = SlidingWindowNode(size=size, slide=slide)
        scalar = ScalarSlidingWindowNode(size=size, slide=slide)
        held, expected = _Capture(ring), _Capture(scalar)
        g0 = 0
        while g0 < n:
            g1 = min(n, g0 + int(rng.integers(1, 12)))
            block = CutBlock(g0, times[g0:g1], data[g0:g1])
            ring.svc(block)
            for i in range(len(block)):
                scalar.svc(block.cut(i))
            g0 = g1
        ring.svc_end()
        scalar.svc_end()
        assert len(held.items) == len(expected.items) == n - size + 1
        for got, want in zip(held.items, expected.items):
            assert got.index == want.index
            assert got.data.tobytes() == want.data.tobytes()
            assert got.times.tobytes() == want.times.tobytes()
            assert got.grid_indices.tobytes() == want.grid_indices.tobytes()
        slabs = {id(window.data.base) for window in held.items}
        bound = -(-len(held.items) // (size - slide + 1)) + 1
        assert 1 < len(slabs) <= bound


class TestWindowObject:
    def test_time_bounds(self):
        times = np.arange(4, dtype=float)
        window = Window(0, times, np.arange(4), times[:, None, None], [])
        assert window.start_time == 0.0
        assert window.end_time == 3.0


@pytest.mark.parametrize("node_cls", NODES)
class TestValidation:
    def test_size_positive(self, node_cls):
        with pytest.raises(ValueError):
            node_cls(size=0)

    def test_slide_bounds(self, node_cls):
        with pytest.raises(ValueError):
            node_cls(size=3, slide=4)
        with pytest.raises(ValueError):
            node_cls(size=3, slide=0)
