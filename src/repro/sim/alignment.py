"""Alignment of trajectories: quantum results -> time-aligned cuts.

The paper's third simulation-pipeline stage "sorts out all received
results and aligns them according to the amount of simulation time": the
farm emits quantum results out of order (different engines, different
trajectories, different speeds); this stage buffers per-grid-point columns
and emits a cut as soon as *every* trajectory has reported that grid
point -- a streaming k-way alignment whose memory footprint is bounded by
the spread between the fastest and slowest trajectory (which the
quantum-based scheduling keeps small).

Two implementations share the same observable behaviour:

* :class:`TrajectoryAligner` -- the **columnar** default.  All pending
  grid points live in one task-major ``(n_trajectories, capacity,
  n_observables)`` NumPy ring buffer indexed by grid offset; a quantum
  result's samples land with **one** contiguous slice assignment (no
  per-sample Python loop, no intermediate row objects) and every
  contiguous run of ready grid points leaves as one
  :class:`~repro.sim.trajectory.CutBlock` (batched emission amortises
  per-item channel overhead).
* :class:`ScalarTrajectoryAligner` -- the original dict-of-tuples
  implementation emitting one :class:`~repro.sim.trajectory.Cut` per grid
  point; kept as the oracle for equivalence tests and as the baseline of
  ``benchmarks/bench_analysis_throughput.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ff.node import GO_ON, Node
from repro.sim.task import QuantumResult, ResultBlock
from repro.sim.trajectory import Cut, CutBlock


class TrajectoryAligner(Node):
    """Farm collector turning quantum results into in-order cut blocks.

    Emits :class:`~repro.sim.trajectory.CutBlock` messages: all grid
    points that became ready during one ``svc`` call leave together.
    ``cuts_emitted`` / ``blocks_emitted`` / ``max_buffered`` mirror the
    scalar aligner's accounting (``max_buffered`` is the high-water mark
    of simultaneously pending grid points -- the fast/slow trajectory
    spread the paper bounds via the simulation quantum).

    The pending store is a flat ring: slot ``g - base`` of ``_data`` /
    ``_seen`` / ``_counts`` belongs to grid point ``g``.  Emitted slots
    are reclaimed by shifting the live region to the front whenever the
    buffer would otherwise grow past its capacity (amortised O(1) per
    grid point, like the sliding window's compaction).

    Two regimes share that store.  While every result extends its task
    contiguously in grid order -- the invariant the real engines and both
    the process and TCP transports maintain -- readiness is tracked with
    per-task high-water marks and a fleet minimum, all scalar Python
    bookkeeping; no ``_seen``/``_counts`` arrays exist at all.  The first
    deviating result (row-form, out-of-order, gapped or duplicate-prone)
    reconstructs those arrays from the high-water marks and the aligner
    continues in the fully general array regime, which validates
    duplicate and stale reports exactly like the scalar oracle.
    """

    def __init__(self, n_trajectories: int, name: str = "align"):
        super().__init__(name=name)
        if n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        self.n_trajectories = n_trajectories
        self._data: np.ndarray | None = None  # (n_traj, cap, n_obs)
        self._times: np.ndarray | None = None
        self._seen: np.ndarray | None = None  # (n_traj, cap) bool
        self._counts: np.ndarray | None = None
        self._capacity = 0
        self._base = 0   # grid index of buffer slot 0
        self._high = 0   # one past the highest grid index buffered
        self._next_emit = 0
        # one past the highest grid each task reported: a result whose
        # first grid is >= this mark cannot duplicate, so the common
        # in-order case skips the seen-matrix scan entirely
        self._task_high: list[int] = [0] * n_trajectories
        self._pending = 0  # grid points with >= 1 report, not yet emitted
        # fast regime: every result so far extended its task contiguously
        # (g0 == task high).  Readiness then reduces to min(task_high), so
        # no seen/counts arrays are kept at all; the first deviating
        # result reconstructs them (_demote) and the aligner drops into
        # the fully general array regime for good.
        self._fast = True
        self._min_high = 0
        self._n_at_min = n_trajectories
        self.cuts_emitted = 0
        self.blocks_emitted = 0
        self.max_buffered = 0

    def svc_init(self) -> None:
        # Per-run reset: a reused aligner must not reject grid points of a
        # fresh stream as "already emitted" or leak pending columns.
        self._data = None
        self._times = None
        self._seen = None
        self._counts = None
        self._capacity = 0
        self._base = 0
        self._high = 0
        self._next_emit = 0
        self._task_high = [0] * self.n_trajectories
        self._pending = 0
        self._fast = True
        self._min_high = 0
        self._n_at_min = self.n_trajectories
        self.cuts_emitted = 0
        self.blocks_emitted = 0
        self.max_buffered = 0

    # ------------------------------------------------------------------
    def _ensure_capacity(self, grid_end: int, n_observables: int) -> None:
        """Make slots for grid points up to ``grid_end`` (exclusive).

        ``_seen`` / ``_counts`` exist only in the array regime (they are
        ``None`` until :meth:`_demote` builds them), so they are shifted
        and grown only when present.
        """
        if self._data is None:
            self._base = self._next_emit
            self._capacity = max(64, 2 * (grid_end - self._base))
            # task-major layout: one task's quantum lands in a contiguous
            # row slice of _data / _seen
            self._data = np.empty(
                (self.n_trajectories, self._capacity, n_observables))
            self._times = np.empty(self._capacity)
            if not self._fast:
                self._seen = np.zeros(
                    (self.n_trajectories, self._capacity), dtype=bool)
                self._counts = np.zeros(self._capacity, dtype=np.int64)
            return
        if grid_end - self._base <= self._capacity:
            return
        # reclaim emitted slots: shift the live region to the front
        shift = self._next_emit - self._base
        if shift:
            lo, hi = shift, self._high - self._base
            live = hi - lo
            self._data[:, :live] = self._data[:, lo:hi]
            self._times[:live] = self._times[lo:hi]
            if self._seen is not None:
                self._seen[:, :live] = self._seen[:, lo:hi]
                self._counts[:live] = self._counts[lo:hi]
                self._seen[:, live:hi] = False
                self._counts[live:hi] = 0
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
            if self._seen is not None:
                seen = np.zeros((self.n_trajectories, self._capacity),
                                dtype=bool)
                seen[:, :live] = self._seen[:, :live]
                self._seen = seen
                counts = np.zeros(self._capacity, dtype=np.int64)
                counts[:live] = self._counts[:live]
                self._counts = counts

    def svc(self, result: QuantumResult):
        if isinstance(result, ResultBlock):
            # a batch quantum: ingest each member view through the normal
            # path (the views are columnar and in-order, so they take the
            # fast regime), then give the segment back -- copied or not
            try:
                for member in result.unpack():
                    self.svc(member)
            finally:
                result.release()
            return GO_ON
        if not isinstance(result, QuantumResult):
            raise TypeError(
                f"aligner received {type(result).__name__}, "
                "expected QuantumResult")
        n_samples = len(result)
        if not n_samples:
            return GO_ON  # nothing new, nothing can have become ready
        task_id = result.task_id
        if self._fast and result._samples is None \
                and result.grid_start == self._task_high[task_id]:
            # hot path: columnar wire format (grids contiguous by
            # construction) extending its task in order.  No duplicate or
            # stale report is possible, so the samples land with a single
            # slice assignment and readiness is pure scalar bookkeeping.
            g0 = result.grid_start
            g_end = g0 + n_samples
            values = result._values
            if self._data is None or g_end - self._base > self._capacity:
                self._ensure_capacity(g_end, values.shape[1])
            lo = g0 - self._base
            hi = g_end - self._base
            self._data[task_id, lo:hi] = values
            self._task_high[task_id] = g_end
            if g_end > self._high:
                # first task to reach these grid points records the times
                # (in this regime the buffered region has no gaps)
                self._times[lo:hi] = result._times
                self._high = g_end
            pending = self._high - self._next_emit
            if pending > self.max_buffered:
                self.max_buffered = pending
            if g0 == self._min_high:
                self._n_at_min -= 1
                if not self._n_at_min:
                    # the slowest tier advanced: recompute the fleet
                    # minimum (amortised O(1) per result) and emit the
                    # newly completed prefix as one block
                    self._min_high = new_min = min(self._task_high)
                    self._n_at_min = self._task_high.count(new_min)
                    if new_min > self._next_emit:
                        self._emit_block(new_min - self._next_emit)
            return GO_ON
        if self._fast:
            self._demote()
        if result._samples is None:
            # columnar wire format: contiguous by construction
            g0 = result.grid_start
            g_end = g0 + n_samples
            self._insert_contiguous(
                g0, g_end, result._times, result._values, task_id)
        else:
            grids, times, values = result.columnar()
            g0 = int(grids[0])
            g_end = int(grids[-1]) + 1
            if n_samples == 1 or (g_end - g0 == n_samples
                                  and bool((np.diff(grids) == 1).all())):
                self._insert_contiguous(g0, g_end, times, values, task_id)
            else:
                g_end = self._insert_scattered(grids, times, values,
                                               task_id)
        if g_end > self._high:
            self._high = g_end
        if self._pending > self.max_buffered:
            self.max_buffered = self._pending
        self._emit_ready()
        return GO_ON

    def _demote(self) -> None:
        """Leave the fast regime: rebuild the ``_seen`` matrix and slot
        counts from the per-task high-water marks (sound because every
        insert so far extended its task contiguously from grid 0)."""
        self._fast = False
        if self._data is not None:
            marks = np.asarray(self._task_high, dtype=np.int64)
            grid = self._base + np.arange(self._capacity)
            self._seen = grid[None, :] < marks[:, None]
            self._counts = self._seen.sum(axis=0, dtype=np.int64)
            lo = self._next_emit - self._base
            hi = self._high - self._base
            self._pending = int(np.count_nonzero(self._counts[lo:hi]))

    def _insert_contiguous(self, g0: int, g_end: int, times, values,
                           task_id: int) -> None:
        """Consecutive ascending grid points: pure slice assignments."""
        if g0 < self._next_emit:
            raise ValueError(
                f"task {task_id} re-reported grid point "
                f"{g0} (already emitted)")
        self._ensure_capacity(g_end, values.shape[1])
        lo, hi = g0 - self._base, g_end - self._base
        if g0 < self._task_high[task_id]:
            seen = self._seen[task_id, lo:hi]
            if seen.any():
                raise ValueError(
                    f"task {task_id} reported grid point "
                    f"{g0 + int(np.argmax(seen))} twice")
        if g_end > self._task_high[task_id]:
            self._task_high[task_id] = g_end
        self._seen[task_id, lo:hi] = True
        counts = self._counts[lo:hi]
        self._pending += (hi - lo) - int(np.count_nonzero(counts))
        counts += 1
        self._data[task_id, lo:hi] = values
        self._times[lo:hi] = times

    def _insert_scattered(self, grids, times, values, task_id: int) -> int:
        """Slow path: non-contiguous (or descending) grid points.
        Returns one past the highest grid index written."""
        stale = grids < self._next_emit
        if stale.any():
            raise ValueError(
                f"task {task_id} re-reported grid point "
                f"{int(grids[np.argmax(stale)])} (already emitted)")
        g_end = int(grids.max()) + 1
        self._ensure_capacity(g_end, values.shape[1])
        idx = np.asarray(grids, dtype=np.int64) - self._base
        dup = self._seen[task_id, idx]
        if dup.any():
            raise ValueError(
                f"task {task_id} reported grid point "
                f"{int(grids[np.argmax(dup)])} twice")
        srt = np.sort(idx)
        eq = np.diff(srt) == 0
        if eq.any():
            raise ValueError(
                f"task {task_id} reported grid point "
                f"{int(srt[np.argmax(eq)]) + self._base} twice")
        if g_end > self._task_high[task_id]:
            self._task_high[task_id] = g_end
        self._seen[task_id, idx] = True
        counts = self._counts[idx]
        self._pending += len(idx) - int(np.count_nonzero(counts))
        self._counts[idx] += 1
        self._data[task_id, idx] = values
        self._times[idx] = times
        return g_end

    def _emit_ready(self) -> None:
        lo = self._next_emit - self._base
        hi = self._high - self._base
        if self._counts is None or hi <= lo:
            return
        if self._counts[lo] < self.n_trajectories:
            return  # the next cut out is incomplete: nothing to emit
        full = self._counts[lo:hi] >= self.n_trajectories
        n_ready = int(np.argmin(full)) if not full.all() else hi - lo
        self._pending -= n_ready
        self._emit_block(n_ready)

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
        # steered early stop): emit the complete prefix only, which
        # _emit_ready already guaranteed, and drop ragged tails.
        self._data = None
        self._times = None
        self._seen = None
        self._counts = None
        self._capacity = 0
        self._pending = 0
        self._base = self._high = self._next_emit


class ScalarTrajectoryAligner(Node):
    """Reference collector emitting one :class:`Cut` per grid point.

    The pre-columnar implementation, kept verbatim as the oracle the
    equivalence tests (and the analysis-throughput benchmark baseline)
    compare :class:`TrajectoryAligner` against.
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

    def svc(self, result: QuantumResult):
        if isinstance(result, ResultBlock):
            try:
                for member in result.unpack():
                    self.svc(member)
            finally:
                result.release()
            return GO_ON
        if not isinstance(result, QuantumResult):
            raise TypeError(
                f"aligner received {type(result).__name__}, "
                "expected QuantumResult")
        for grid_index, time, values in result.samples:
            if grid_index < self._next_emit:
                raise ValueError(
                    f"task {result.task_id} re-reported grid point "
                    f"{grid_index} (already emitted)")
            column = self._pending.setdefault(grid_index, {})
            if result.task_id in column:
                raise ValueError(
                    f"task {result.task_id} reported grid point "
                    f"{grid_index} twice")
            column[result.task_id] = values
            self._times[grid_index] = time
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
