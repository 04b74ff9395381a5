"""Sliding windows of trajectory cuts.

"More complex analysis require the access to the whole dataset, but it is
difficult to do with an on-line process.  In many cases it is approximated
by way of sliding windows over the whole dataset" -- this stage is the
paper's *generation of sliding windows of trajectories* box: it buffers
the cut stream and emits overlapping :class:`Window` objects of ``size``
cuts every ``slide`` cuts, each independently analysable (hence
parallelisable across the statistical-engine farm).

:class:`SlidingWindowNode` is columnar: cuts land in a ring
buffer (one ``(capacity, n_trajectories, n_observables)`` slab), a
window is a read-only view of it, a slide is a pointer bump (amortised
O(1), no per-slide matrix rebuild), :class:`~repro.sim.trajectory.CutBlock`
batches are bulk-copied in one slice assignment, and per-cut statistics
are computed **incrementally** -- once per arriving cut, vectorised over
each block -- instead of being recomputed over the whole window at every
emission (overlapping windows share them for free).  The list-of-cuts
windower it replaced is the test oracle in ``tests/oracles/analysis.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.stats import CutStatistics, block_statistics
from repro.ff.node import GO_ON, Node
from repro.sim.trajectory import CutBlock


class Window:
    """``size`` consecutive cuts; ``index`` counts emitted windows.

    ``data`` is ``(n_cuts, n_trajectories, n_observables)``, ``times`` /
    ``grid_indices`` are 1-D, and ``cut_stats`` holds each cut's
    :class:`~repro.analysis.stats.CutStatistics`, computed once per cut
    by the windower and shared by the windows that overlap on it.
    """

    __slots__ = ("index", "times", "grid_indices", "data", "cut_stats")

    def __init__(self, index: int, times: np.ndarray,
                 grid_indices: np.ndarray, data: np.ndarray,
                 cut_stats: list[CutStatistics]):
        self.index = index
        self.times = times
        self.grid_indices = grid_indices
        self.data = data
        self.cut_stats = cut_stats

    @property
    def n_trajectories(self) -> int:
        return self.data.shape[1]

    @property
    def n_observables(self) -> int:
        return self.data.shape[2]

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return (f"<Window #{self.index} cuts={len(self)} "
                f"n={self.data.shape[1]}>")


class SlidingWindowNode(Node):
    """Re-frame the cut stream into overlapping windows (columnar).

    Accepts :class:`CutBlock` inputs.  The buffer is a slab of
    ``2 * size`` rows used as a compacting ring: a block appends at the
    tail in one slice copy, a slide advances the head pointer, and when
    the tail hits capacity the live rows move to the front of a fresh
    slab in one copy -- amortised O(1) per cut, never a per-slide
    rebuild.  A slab's rows are written once, so a window is a read-only
    view of them, not a copy; the windows still in flight keep their
    slab alive (NumPy's own reference count), and it is freed with the
    last of them.

    Per-cut statistics are computed once per arriving cut -- vectorised
    per block -- and emitted on each window (``Window.cut_stats``), so
    downstream engines never recompute statistics for the cuts
    overlapping windows share.

    At end-of-stream a final, shorter window is emitted if some cuts
    never filled a whole window (so short runs still produce output).
    """

    def __init__(self, size: int, slide: int | None = None,
                 name: str = "windows"):
        super().__init__(name=name)
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self.slide = slide if slide is not None else size
        if self.slide < 1 or self.slide > size:
            raise ValueError(
                f"slide must be in [1, size], got {self.slide}")
        self._capacity = 2 * size
        self._data: Optional[np.ndarray] = None   # (capacity, n_traj, n_obs)
        self._times: Optional[np.ndarray] = None
        self._grids: Optional[np.ndarray] = None
        self._stats: Optional[list] = None  # parallel CutStatistics ring
        self._head = 0   # index of the oldest buffered cut
        self._tail = 0   # one past the newest buffered cut
        self._emitted = 0

    def svc_init(self) -> None:
        # Reset per-run state: without this, a second run of the same
        # structure would continue window indices and leak buffered cuts
        # from the previous stream.
        self._data = None
        self._times = None
        self._grids = None
        self._stats = None
        self._head = 0
        self._tail = 0
        self._emitted = 0

    # ------------------------------------------------------------------
    def _allocate(self, n_trajectories: int, n_observables: int) -> None:
        self._data = np.empty(
            (self._capacity, n_trajectories, n_observables), dtype=float)
        self._times = np.empty(self._capacity, dtype=float)
        self._grids = np.empty(self._capacity, dtype=np.int64)
        self._stats = [None] * self._capacity

    def _compact(self) -> None:
        """Move the live rows to the front of a fresh slab (amortised O(1)
        per cut).  Emitted windows are views of the old slab, which they
        keep alive until the last of them is dropped."""
        head, tail = self._head, self._tail
        count = tail - head
        data, times, grids = self._data, self._times, self._grids
        self._data = np.empty_like(data)
        self._times = np.empty_like(times)
        self._grids = np.empty_like(grids)
        self._data[:count] = data[head:tail]
        self._times[:count] = times[head:tail]
        self._grids[:count] = grids[head:tail]
        self._stats[:count] = self._stats[head:tail]
        self._head = 0
        self._tail = count

    def svc(self, item: CutBlock):
        if not isinstance(item, CutBlock):
            raise TypeError(
                f"window node received {type(item).__name__}, "
                "expected CutBlock")
        times = item.times
        grids = item.grid_indices
        data = item.data
        if self._data is None:
            self._allocate(data.shape[1], data.shape[2])
        stats = block_statistics(grids, times, data)
        offset = 0
        n_new = data.shape[0]
        while offset < n_new:
            room_to_full = self.size - (self._tail - self._head)
            take = min(n_new - offset, room_to_full,
                       self._capacity - self._tail)
            if take == 0:
                # tail hit capacity before the window filled: compact
                self._compact()
                continue
            lo, hi = self._tail, self._tail + take
            self._data[lo:hi] = data[offset:offset + take]
            self._times[lo:hi] = times[offset:offset + take]
            self._grids[lo:hi] = grids[offset:offset + take]
            self._stats[lo:hi] = stats[offset:offset + take]
            self._tail = hi
            offset += take
            if self._tail - self._head == self.size:
                self._emit_window(self.size)
                self._head += self.slide  # O(1) slide: a pointer bump
        return GO_ON

    def _emit_window(self, length: int) -> None:
        lo, hi = self._head, self._head + length
        times, grids, data = (self._times[lo:hi], self._grids[lo:hi],
                              self._data[lo:hi])
        for view in (times, grids, data):
            view.flags.writeable = False
        window = Window(self._emitted, times=times, grid_indices=grids,
                        data=data, cut_stats=list(self._stats[lo:hi]))
        self.ff_send_out(window)
        self._emitted += 1
        self.trace_incr("analysis.windows", 1)
        self.trace_incr("analysis.window_slides", 1)

    def svc_end(self) -> None:
        count = self._tail - self._head
        if count and (self._emitted == 0 or self.slide == self.size
                      or count > self.size - self.slide):
            self._emit_window(count)
        self._head = self._tail = 0

