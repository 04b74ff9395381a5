"""Fused sweep tasks: the parameter axis inside the lockstep kernels.

A :class:`FusedSweepTask` is a :class:`~repro.sim.task.BatchSimulationTask`
whose block advances the rows of *several* sweep points at once: row
``k`` belongs to point ``point_indices[k // n_trajectories]`` and
carries that point's rate constants via the simulator's per-row rates
array, while the per-point RNG streams guarantee every point draws the
exact sequence its solo run would.  Like every batch task, a fused
block returns one :class:`~repro.sim.task.ResultBlock` per quantum, so a
64-point block's quantum crosses the wire as one frame / shm segment.

Task ids are global row ids: ``point * n_trajectories + trajectory``,
so one aligner sized ``n_points * n_trajectories`` aligns the whole
sweep and downstream stages recover the point axis with a reshape.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.cwc.batch import BatchFlatSimulator, compile_network
from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.sim.task import BatchSimulationTask
from repro.sweep.spec import SweepSpec


class FusedSweepTask(BatchSimulationTask):
    """A lockstep block covering ``len(point_indices)`` sweep points."""

    def __init__(self, point_indices: Sequence[int],
                 n_trajectories: int, task_ids: Sequence[int],
                 batch: BatchFlatSimulator, t_end: float, quantum: float,
                 sample_every: float):
        super().__init__(task_ids, batch, t_end, quantum, sample_every)
        self.point_indices = tuple(point_indices)
        self.n_trajectories = n_trajectories
        if len(self.point_indices) * n_trajectories != batch.n:
            raise ValueError(
                f"{len(self.point_indices)} points x {n_trajectories} "
                f"trajectories for a {batch.n}-row block")

    def __repr__(self) -> str:
        return (f"<FusedSweepTask points={self.point_indices[0]}.."
                f"{self.point_indices[-1]} x{self.n_trajectories} "
                f"t={self.time:.3g}/{self.t_end:g}>")


def make_fused_tasks(model: Union[Model, ReactionNetwork],
                     spec: SweepSpec, t_end: float, quantum: float,
                     sample_every: float,
                     engine_kernel: str = "numpy",
                     method: str = "exact"
                     ) -> list[FusedSweepTask]:
    """Build the sweep's fused blocks.

    The network is compiled once through the process-wide cache and
    shared by every block; each block's rows carry its points' rate
    constants (``(rows, n_reactions)``, one :meth:`rates_for` row per
    point broadcast across its trajectories) and one RNG stream per
    point seeded ``spec.seed_of(point)`` -- the solo-run seed, which is
    what makes the fused trajectories bit-identical to solo runs.

    ``method`` picks the stepping algorithm (``"exact"``, ``"tau"`` or
    ``"hybrid"``).  The per-point streams carry over: under leaping a
    fused point's trajectories still match the solo leaped run of that
    point bit for bit (same streams, same draw order), though leaped
    runs as a class are only distribution-equivalent to exact SSA.
    """
    if isinstance(model, ReactionNetwork):
        network = model
    else:
        network = ReactionNetwork.from_model(model)
    spec.validate(network)
    compiled = compile_network(network)
    T = spec.n_trajectories
    tasks = []
    for points in spec.blocks():
        n_rows = len(points) * T
        rows = np.empty((n_rows, compiled.n_reactions))
        for k, p in enumerate(points):
            rows[k * T:(k + 1) * T] = compiled.rates_for(spec.points[p])
        batch = BatchFlatSimulator(
            compiled, n_rows, seed=spec.seed_of(points[0]),
            kernel=engine_kernel, row_rates=rows,
            rng_streams=[(T, spec.seed_of(p)) for p in points],
            method=method)
        task_ids = range(points[0] * T, (points[-1] + 1) * T)
        tasks.append(FusedSweepTask(points, T, task_ids, batch, t_end,
                                    quantum, sample_every))
    return tasks
