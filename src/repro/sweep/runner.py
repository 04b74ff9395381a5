"""The sweep orchestrator: fused blocks -> per-point summary matrices.

:func:`run_sweep` is :func:`~repro.pipeline.run_workflow` with two
stages swapped: the task source builds fused blocks, and behind the one
columnar aligner (sized ``n_points * n_trajectories``) a
:class:`SweepAccumulator` replaces the single-run analysis half, folding
every aligned cut block into per-point running summaries: for each
observable, a ``(point, cut)`` matrix of ensemble means and variances.
That is the whole sweep reduced online, in one pass, with memory
``O(points x cuts x observables)`` -- no per-point result objects, no
second pass -- on whichever backend runs the quanta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.ff.node import GO_ON, Node
from repro.ff.trace import RunReport, Tracer
from repro.sim.scheduler import TaskSource
from repro.sim.trajectory import CutBlock
from repro.sweep.fused import make_fused_tasks
from repro.sweep.spec import SweepSpec


@dataclass
class SweepResult:
    """Per-point summaries of one sweep, cut by cut.

    ``mean`` / ``variance`` are ``(n_points, n_cuts, n_observables)``
    arrays (variance is the sample variance across the point's
    trajectory fleet, 0 for a single trajectory); ``times`` the shared
    sampling grid.  :meth:`point_matrix` exposes the storage layout --
    one ``(point, cut)`` matrix per observable.
    """

    spec: SweepSpec
    observable_names: tuple[str, ...]
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    trace_report: Optional[RunReport] = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return self.mean.shape[0]

    @property
    def n_cuts(self) -> int:
        return self.mean.shape[1]

    def observable_index(self, observable: Union[int, str]) -> int:
        if isinstance(observable, str):
            return self.observable_names.index(observable)
        return observable

    def point_matrix(self, observable: Union[int, str],
                     stat: str = "mean") -> np.ndarray:
        """The ``(point, cut)`` matrix of one observable."""
        source = {"mean": self.mean, "variance": self.variance}[stat]
        return source[:, :, self.observable_index(observable)]


class SweepAccumulator(Node):
    """Folds aligned cut blocks into per-point running summaries.

    The aligner's cut data arrives ``(n_trajectories_total,
    n_observables)`` per cut with rows in task-id order; task ids are
    ``point * T + trajectory``, so one reshape recovers the point axis
    and the per-point mean/variance are two vectorized reductions.
    """

    def __init__(self, n_points: int, n_trajectories: int, n_cuts: int,
                 n_observables: int, name: str = "sweep-acc"):
        super().__init__(name=name)
        self.n_points = n_points
        self.n_trajectories = n_trajectories
        self.times = np.full(n_cuts, np.nan)
        self.mean = np.zeros((n_points, n_cuts, n_observables))
        self.variance = np.zeros((n_points, n_cuts, n_observables))
        self.cuts_seen = 0

    def svc(self, item: CutBlock):
        if not isinstance(item, CutBlock):
            raise TypeError(
                f"sweep accumulator received {type(item).__name__}")
        g0 = item.grid_start
        data = item.data  # (n_cuts, P*T, n_obs)
        block = data.reshape(data.shape[0], self.n_points,
                             self.n_trajectories, data.shape[2])
        n = data.shape[0]
        self.times[g0:g0 + n] = item.times
        self.mean[:, g0:g0 + n] = block.mean(axis=2).transpose(1, 0, 2)
        ddof = 1 if self.n_trajectories > 1 else 0
        self.variance[:, g0:g0 + n] = block.var(
            axis=2, ddof=ddof).transpose(1, 0, 2)
        self.cuts_seen += n
        self.trace_incr("sweep.cuts", n)
        return GO_ON


def run_sweep(model: Union[Model, ReactionNetwork], spec: SweepSpec,
              t_end: float, quantum: float, sample_every: float,
              n_sim_workers: int = 4, engine_kernel: str = "numpy",
              method: str = "exact",
              backend: str = "threads",
              observable_names: Optional[Sequence[str]] = None,
              tracer: Optional[Tracer] = None,
              trace: bool = False,
              pool=None,
              stop_requested=None,
              fault_hook=None,
              **config_fields) -> SweepResult:
    """Run ``spec`` over ``model`` and reduce it to per-point summaries.

    One farm (under ``backend="processes"`` / ``"cluster"``, its engines
    backed by one master and its worker processes) runs the whole sweep:
    every fused block advances many points per quantum, returns one
    result block for it, and a single aligner + accumulator produce the
    ``(point, cut)`` matrices.  Point ``p``'s trajectories are bit-identical to a solo
    ``engine="batch"`` run of ``model.with_rates(spec.points[p])``
    seeded ``spec.seed_of(p)`` (single block, same kernel), on every
    backend.

    The run parameters are :class:`~repro.pipeline.WorkflowConfig`
    fields (further ones, e.g. ``cluster_inflight`` or
    ``trace_report_path``, pass through ``config_fields``); ``pool`` and
    ``fault_hook`` are those of :func:`~repro.pipeline.run_workflow` --
    the service passes its shared fleet as ``pool``.
    ``stop_requested`` (a zero-argument callable) drains the sweep early
    at the end of the dispatches in flight when it returns True (steered
    cancellation); cuts never reached stay NaN in ``times`` and zero in
    the matrices.
    """
    # lazy: building fused tasks or reading a sweep store should not
    # import the analysis plane repro.pipeline brings with it
    from repro.pipeline.builder import (assemble_workflow, execute_workflow,
                                        workflow_pool)
    from repro.pipeline.config import WorkflowConfig

    if isinstance(model, ReactionNetwork):
        network = model
    else:
        network = ReactionNetwork.from_model(model)
    if observable_names is None:
        observable_names = tuple(network.observables)
    config = WorkflowConfig(
        n_simulations=spec.n_rows, t_end=t_end, quantum=quantum,
        sample_every=sample_every, n_sim_workers=n_sim_workers,
        engine="batch", engine_kernel=engine_kernel, method=method,
        backend=backend, trace=trace, **config_fields)
    accumulator = SweepAccumulator(
        spec.n_points, spec.n_trajectories, config.n_grid_points,
        len(observable_names))
    source = TaskSource(lambda: make_fused_tasks(
        network, spec, t_end, quantum, sample_every,
        engine_kernel=engine_kernel, method=method))
    with workflow_pool(config, pool, fault_hook) as pool:
        workflow = assemble_workflow(
            source, spec.n_rows, config, [accumulator],
            stop_requested=stop_requested, pool=pool)
        _, report = execute_workflow(workflow, config, tracer, pool)
    return SweepResult(
        spec=spec, observable_names=tuple(observable_names),
        times=accumulator.times, mean=accumulator.mean,
        variance=accumulator.variance, trace_report=report)
