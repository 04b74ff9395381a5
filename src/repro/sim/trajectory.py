"""Trajectory data: cuts (time-aligned cross sections) and full series.

A *cut* is the paper's unit of on-line analysis: "an array containing the
results of all simulations at a given simulation time".  The alignment
stage produces a stream of cuts in grid order; the analysis pipeline
consumes them through sliding windows.

Since the columnar-analysis refactor a cut is backed by one NumPy array
of shape ``(n_trajectories, n_observables)`` (:attr:`Cut.data`); the
tuple-of-tuples view (:attr:`Cut.values`) is materialised lazily for
code that still wants plain Python objects.  :class:`CutBlock` carries a
run of *consecutive* cuts as a single ``(n_cuts, n_trajectories,
n_observables)`` array -- the batched message the columnar aligner emits
to amortise per-item channel overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class Cut:
    """All trajectories' observables at one sampling-grid point.

    Construct either from ``values`` (a list of per-trajectory observable
    tuples, the historical layout) or from ``data`` (a ready-made
    ``(n_trajectories, n_observables)`` float array).  Both views stay
    available; conversions are lazy and cached.
    """

    __slots__ = ("grid_index", "time", "_data", "_values")

    def __init__(self, grid_index: int, time: float,
                 values: Optional[Sequence[Sequence[float]]] = None,
                 *, data: Optional[np.ndarray] = None):
        self.grid_index = grid_index
        self.time = time
        if data is not None:
            arr = np.asarray(data, dtype=float)
            if arr.ndim != 2:
                raise ValueError(
                    f"cut data must be 2-D (n_trajectories, n_observables),"
                    f" got shape {arr.shape}")
            self._data = arr
            self._values: Optional[list[tuple[float, ...]]] = None
        elif values is not None:
            self._values = list(values)
            self._data = None
        else:
            raise ValueError("Cut needs either values or data")

    # -- array view ------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """``(n_trajectories, n_observables)`` float array."""
        if self._data is None:
            vals = self._values
            if vals:
                self._data = np.asarray(vals, dtype=float)
                if self._data.ndim == 1:  # scalars per trajectory
                    self._data = self._data.reshape(len(vals), -1)
            else:
                self._data = np.empty((0, 0), dtype=float)
        return self._data

    # -- tuple view (historical layout) ----------------------------------
    @property
    def values(self) -> list[tuple[float, ...]]:
        """``values[task_id]`` -> observable tuple for that trajectory."""
        if self._values is None:
            self._values = [tuple(row) for row in self._data.tolist()]
        return self._values

    @property
    def n_trajectories(self) -> int:
        if self._values is not None:
            return len(self._values)
        return self.data.shape[0]

    @property
    def n_observables(self) -> int:
        return self.data.shape[1]

    def observable(self, index: int) -> list[float]:
        """The cross-section of one observable across all trajectories."""
        return self.data[:, index].tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return (self.grid_index == other.grid_index
                and self.time == other.time
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return (f"<Cut #{self.grid_index} t={self.time:g} "
                f"n={self.n_trajectories}>")

    # __slots__ classes need explicit pickle support.  Only one view is
    # shipped (the array when it exists, else the tuple list): the other
    # is derived lazily on the receiving side, so a cut that holds both
    # never pays for its payload twice.
    def __getstate__(self):
        if self._data is not None:
            return (self.grid_index, self.time, self._data, None)
        return (self.grid_index, self.time, None, self._values)

    def __setstate__(self, state):
        self.grid_index, self.time, self._data, self._values = state


class CutBlock:
    """A batch of *consecutive* cuts shipped as one stream item.

    ``data[i]`` is the cut at grid index ``grid_start + i``; ``times[i]``
    its simulation time.  Iterating yields :class:`Cut` views that share
    the block's memory (no copies).
    """

    __slots__ = ("grid_start", "times", "data")

    def __init__(self, grid_start: int, times: np.ndarray, data: np.ndarray):
        self.grid_start = int(grid_start)
        self.times = np.asarray(times, dtype=float)
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(
                "block data must be 3-D (n_cuts, n_trajectories, "
                f"n_observables), got shape {self.data.shape}")
        if len(self.times) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.times)} times for {self.data.shape[0]} cuts")

    @property
    def n_trajectories(self) -> int:
        return self.data.shape[1]

    @property
    def n_observables(self) -> int:
        return self.data.shape[2]

    @property
    def grid_indices(self) -> np.ndarray:
        return np.arange(self.grid_start, self.grid_start + len(self))

    def cut(self, i: int) -> Cut:
        """The ``i``-th cut of the block (a zero-copy view)."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        return Cut(self.grid_start + i, float(self.times[i]),
                   data=self.data[i])

    def __len__(self) -> int:
        return self.data.shape[0]

    def __iter__(self) -> Iterator[Cut]:
        return (self.cut(i) for i in range(len(self)))

    def __repr__(self) -> str:
        return (f"<CutBlock #{self.grid_start}..{self.grid_start + len(self) - 1}"
                f" n={self.n_trajectories}>")

    def __getstate__(self):
        return (self.grid_start, self.times, self.data)

    def __setstate__(self, state):
        self.grid_start, self.times, self.data = state


def iter_cuts(stream: Iterable) -> Iterator[Cut]:
    """Flatten a mixed stream of :class:`Cut` / :class:`CutBlock` items."""
    for item in stream:
        if isinstance(item, CutBlock):
            yield from item
        else:
            yield item


@dataclass
class Trajectory:
    """One full assembled trajectory (mainly for tests and examples;
    the streaming pipeline never materialises these)."""

    task_id: int
    times: list[float] = field(default_factory=list)
    samples: list[tuple[float, ...]] = field(default_factory=list)

    def column(self, index: int) -> list[float]:
        return [s[index] for s in self.samples]

    def __len__(self) -> int:
        return len(self.times)


def assemble_trajectories(cuts: Iterable[Cut],
                          n_trajectories: int) -> list[Trajectory]:
    """Transpose a stream of cuts (or cut blocks) back into per-trajectory
    series."""
    trajectories = [Trajectory(task_id=i) for i in range(n_trajectories)]
    for cut in sorted(iter_cuts(cuts), key=lambda c: c.grid_index):
        if cut.n_trajectories != n_trajectories:
            raise ValueError(
                f"cut #{cut.grid_index} has {cut.n_trajectories} "
                f"trajectories, expected {n_trajectories}")
        for trajectory, value in zip(trajectories, cut.values):
            trajectory.times.append(cut.time)
            trajectory.samples.append(value)
    return trajectories
