"""Alignment of trajectories: quantum results -> time-aligned cuts.

The paper's third simulation-pipeline stage "sorts out all received
results and aligns them according to the amount of simulation time": the
farm emits quantum results out of order across trajectories (different
engines, different trajectories, different speeds); this stage buffers
per-grid-point columns and emits a cut as soon as *every* trajectory has
reported that grid point -- a streaming k-way alignment whose memory
footprint is bounded by the spread between the fastest and slowest
trajectory (which the quantum-based scheduling keeps small).

Every stream item is one :class:`~repro.sim.task.ResultBlock` (a scalar
task's is a block of one trajectory).  Two implementations share the
same observable behaviour:

* :class:`TrajectoryAligner` -- the **columnar** default.  All pending
  grid points live in one task-major ``(n_trajectories, capacity,
  n_observables)`` NumPy ring buffer indexed by grid offset; a block's
  members land with **one** slice assignment (no per-member or
  per-sample Python loop) and every contiguous run of ready grid points
  leaves as one :class:`~repro.sim.trajectory.CutBlock` (batched
  emission amortises per-item channel overhead).  It relies on each
  trajectory's results arriving in grid order, which every runtime
  guarantees (see :class:`TrajectoryAligner`).
* :class:`ScalarTrajectoryAligner` -- the original dict-of-tuples
  implementation emitting one :class:`~repro.sim.trajectory.Cut` per grid
  point and accepting results in any order; kept as the oracle for
  equivalence tests and as the baseline of
  ``benchmarks/bench_analysis_throughput.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ff.node import GO_ON, Node
from repro.sim.task import ResultBlock
from repro.sim.trajectory import Cut, CutBlock


def _check_ids(block, n_trajectories: int) -> range:
    """A stream item's member ids, refused (``TypeError`` /
    ``ValueError``) unless it is a block over ``[0, n_trajectories)``."""
    if not isinstance(block, ResultBlock):
        raise TypeError(
            f"aligner received {type(block).__name__}, "
            "expected ResultBlock")
    ids = block.task_ids
    if ids.start < 0 or ids.stop > n_trajectories:
        raise ValueError(
            f"task ids {ids.start}..{ids.stop - 1} outside "
            f"[0, {n_trajectories})")
    return ids


class TrajectoryAligner(Node):
    """Farm collector turning result blocks into in-order cut blocks.

    Emits :class:`~repro.sim.trajectory.CutBlock` messages: all grid
    points that became ready during one ``svc`` call leave together.
    ``cuts_emitted`` / ``blocks_emitted`` / ``max_buffered`` mirror the
    scalar aligner's accounting (``max_buffered`` is the high-water mark
    of simultaneously pending grid points -- the fast/slow trajectory
    spread the paper bounds via the simulation quantum).

    The pending store is a flat ring: slot ``g - base`` of ``_data``
    belongs to grid point ``g``.  Emitted slots are reclaimed by
    shifting the live region to the front whenever the buffer would
    otherwise grow past its capacity (amortised O(1) per grid point,
    like the sliding window's compaction).

    Readiness is an int64 array of per-trajectory high-water marks (one
    past the last grid point reported) and the fleet minimum over it.
    That is all the bookkeeping needed because each trajectory's results
    arrive in grid order: the farm's merge channel is one FIFO, an engine
    sends a quantum's result before feeding the task back for the next
    one, a replayed quantum resolves its future once and the cluster
    master drops a dead worker's late frames.  So a block must start at
    its members' mark; one that does not is refused with ``ValueError``
    ("already emitted" below the next cut, "twice" below the mark,
    "gap" above it).
    """

    def __init__(self, n_trajectories: int, name: str = "align"):
        super().__init__(name=name)
        if n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        self.n_trajectories = n_trajectories
        self.svc_init()

    def svc_init(self) -> None:
        # Per-run reset: a reused aligner must not reject grid points of a
        # fresh stream as "already emitted" or leak pending columns.
        self._data: np.ndarray | None = None  # (n_traj, cap, n_obs)
        self._times: np.ndarray | None = None
        self._capacity = 0
        self._base = 0   # grid index of buffer slot 0
        self._high = 0   # one past the highest grid index buffered
        self._next_emit = 0
        self._marks = np.zeros(self.n_trajectories, dtype=np.int64)
        # the fleet minimum of _marks and how many trajectories sit at it:
        # the minimum is recomputed only once the last of them advances
        self._min_high = 0
        self._n_at_min = self.n_trajectories
        self.cuts_emitted = 0
        self.blocks_emitted = 0
        self.max_buffered = 0

    # ------------------------------------------------------------------
    def _ensure_capacity(self, grid_end: int, n_observables: int) -> None:
        """Make slots for grid points up to ``grid_end`` (exclusive)."""
        if self._data is None:
            self._base = self._next_emit
            self._capacity = max(64, 2 * (grid_end - self._base))
            # task-major layout: a block's members land in one slice
            self._data = np.empty(
                (self.n_trajectories, self._capacity, n_observables))
            self._times = np.empty(self._capacity)
            return
        # reclaim emitted slots: shift the live region to the front
        shift = self._next_emit - self._base
        if shift:
            lo, hi = shift, self._high - self._base
            live = hi - lo
            self._data[:, :live] = self._data[:, lo:hi]
            self._times[:live] = self._times[lo:hi]
            self._base = self._next_emit
        need = grid_end - self._base
        if need > self._capacity:
            live = self._high - self._base
            self._capacity = max(2 * self._capacity, 2 * need)
            data = np.empty(self._data.shape[:1] + (self._capacity,)
                            + self._data.shape[2:])
            data[:, :live] = self._data[:, :live]
            self._data = data
            times = np.empty(self._capacity)
            times[:live] = self._times[:live]
            self._times = times

    def svc(self, block: ResultBlock):
        try:
            self._ingest(block)
        finally:
            if isinstance(block, ResultBlock):
                block.release()  # copied or refused, the segment goes back
        return GO_ON

    def _ingest(self, block: ResultBlock) -> None:
        ids = _check_ids(block, self.n_trajectories)
        n_grid = block.n_grid
        if not n_grid:
            return  # nothing new, nothing can have become ready
        g0 = block.grid_start
        if g0 < self._next_emit:
            raise ValueError(
                f"task {ids.start} re-reported grid point {g0} "
                "(already emitted)")
        first, stop = ids.start, ids.stop
        marks = self._marks[first:stop]
        listed = marks.tolist()  # cheaper than array ops at width 1
        if listed.count(g0) != len(listed):
            task_id, mark = next((t, m) for t, m in enumerate(listed, first)
                                 if m != g0)
            if mark > g0:
                raise ValueError(
                    f"task {task_id} reported grid point {g0} twice")
            raise ValueError(f"task {task_id} skipped grid points "
                             f"{mark}..{g0 - 1} (gap)")
        g_end = g0 + n_grid
        values = block._values
        if self._data is None or g_end - self._base > self._capacity:
            self._ensure_capacity(g_end, values.shape[2])
        lo = g0 - self._base
        hi = g_end - self._base
        self._data[first:stop, lo:hi] = values
        marks.fill(g_end)
        if g_end > self._high:
            # the first trajectories to reach these grid points record
            # the times (the buffered region has no gaps)
            self._times[lo:hi] = block._times
            self._high = g_end
        pending = self._high - self._next_emit
        if pending > self.max_buffered:
            self.max_buffered = pending
        if g0 == self._min_high:
            self._n_at_min -= stop - first
            if not self._n_at_min:
                # the slowest tier advanced: recompute the fleet minimum
                # (amortised O(1) per member) and emit the newly
                # completed prefix as one block
                self._min_high = new_min = int(self._marks.min())
                self._n_at_min = int(np.count_nonzero(
                    self._marks == new_min))
                if new_min > self._next_emit:
                    self._emit_block(new_min - self._next_emit)

    def _emit_block(self, n_ready: int) -> None:
        lo = self._next_emit - self._base
        block = CutBlock(
            self._next_emit,
            self._times[lo:lo + n_ready].copy(),
            np.ascontiguousarray(
                self._data[:, lo:lo + n_ready].transpose(1, 0, 2)))
        self._next_emit += n_ready
        self.ff_send_out(block)
        self.cuts_emitted += n_ready
        self.blocks_emitted += 1
        self.trace_incr("align.cuts", n_ready)
        self.trace_incr("align.blocks", 1)

    def svc_end(self) -> None:
        # Everything still pending at end-of-stream is incomplete (a
        # steered early stop): the complete prefix already left, ragged
        # tails are dropped.
        self._data = None
        self._times = None
        self._capacity = 0
        self._base = self._high = self._next_emit


class ScalarTrajectoryAligner(Node):
    """Reference collector emitting one :class:`Cut` per grid point.

    The pre-columnar implementation, kept as the oracle the equivalence
    tests (and the analysis-throughput benchmark baseline) compare
    :class:`TrajectoryAligner` against.  It reads a block member by
    member and sample by sample, and accepts results in any order.
    """

    def __init__(self, n_trajectories: int, name: str = "align"):
        super().__init__(name=name)
        if n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        self.n_trajectories = n_trajectories
        # grid index -> {task_id: values}; times recorded separately
        self._pending: dict[int, dict[int, tuple[float, ...]]] = {}
        self._times: dict[int, float] = {}
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc_init(self) -> None:
        self._pending.clear()
        self._times.clear()
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc(self, block: ResultBlock):
        try:
            ids = _check_ids(block, self.n_trajectories)
            times = block._times.tolist()
            for task_id, rows in zip(ids, block._values.tolist()):
                for k, (time, values) in enumerate(zip(times, rows)):
                    grid_index = block.grid_start + k
                    if grid_index < self._next_emit:
                        raise ValueError(
                            f"task {task_id} re-reported grid point "
                            f"{grid_index} (already emitted)")
                    column = self._pending.setdefault(grid_index, {})
                    if task_id in column:
                        raise ValueError(
                            f"task {task_id} reported grid point "
                            f"{grid_index} twice")
                    column[task_id] = tuple(values)
                    self._times[grid_index] = time
        finally:
            if isinstance(block, ResultBlock):
                block.release()
        self.max_buffered = max(self.max_buffered, len(self._pending))
        self._emit_ready()
        return GO_ON

    def _emit_ready(self) -> None:
        while True:
            column = self._pending.get(self._next_emit)
            if column is None or len(column) < self.n_trajectories:
                return
            time = self._times.pop(self._next_emit)
            del self._pending[self._next_emit]
            values = [column[task_id]
                      for task_id in range(self.n_trajectories)]
            self.ff_send_out(Cut(grid_index=self._next_emit, time=time,
                                 values=values))
            self.cuts_emitted += 1
            self.trace_incr("align.cuts", 1)
            self._next_emit += 1

    def svc_end(self) -> None:
        self._pending.clear()
        self._times.clear()
