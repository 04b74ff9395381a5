"""The sweep orchestrator: fused blocks -> per-point summary matrices.

:func:`run_sweep` wires the standard farm skeleton -- task source,
master-worker emitter, simulation engines, one columnar aligner sized
``n_points * n_trajectories`` -- and replaces the single-run analysis
half with a :class:`SweepAccumulator` that folds every aligned cut block
into per-point running summaries: for each observable, a
``(point, cut)`` matrix of ensemble means and variances.  That is the
whole sweep reduced online, in one pass, with memory ``O(points x
cuts x observables)`` -- no per-point result objects, no second pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.cwc.batch import network_cache_stats
from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.ff.executor import run as ff_run
from repro.ff.farm import Farm
from repro.ff.node import GO_ON, Node, SourceNode
from repro.ff.trace import RunReport, Tracer
from repro.sim.alignment import TrajectoryAligner
from repro.sim.engine import SimEngineNode
from repro.sim.scheduler import SimTaskEmitter
from repro.sim.trajectory import Cut, CutBlock
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
    """Folds aligned cuts into per-point running summaries.

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

    def svc(self, item):
        if isinstance(item, CutBlock):
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
        elif isinstance(item, Cut):
            data = np.asarray(item.data, dtype=float)
            block = data.reshape(self.n_points, self.n_trajectories,
                                 data.shape[1])
            g = item.grid_index
            self.times[g] = item.time
            self.mean[:, g] = block.mean(axis=1)
            ddof = 1 if self.n_trajectories > 1 else 0
            self.variance[:, g] = block.var(axis=1, ddof=ddof)
            self.cuts_seen += 1
            self.trace_incr("sweep.cuts", 1)
        else:
            raise TypeError(
                f"sweep accumulator received {type(item).__name__}")
        return GO_ON


class _FusedTaskSource(SourceNode):
    """Builds the fused blocks lazily (inside the running graph) and
    reports compile-cache hits like the single-run task generator."""

    def __init__(self, network, spec: SweepSpec, t_end: float,
                 quantum: float, sample_every: float, engine_kernel: str,
                 method: str = "exact"):
        super().__init__(name="sweep-gen")
        self.network = network
        self.spec = spec
        self.t_end = t_end
        self.quantum = quantum
        self.sample_every = sample_every
        self.engine_kernel = engine_kernel
        self.method = method

    def generate(self):
        hits_before = network_cache_stats()["hits"]
        tasks = make_fused_tasks(self.network, self.spec, self.t_end,
                                 self.quantum, self.sample_every,
                                 engine_kernel=self.engine_kernel,
                                 method=self.method)
        hits = network_cache_stats()["hits"] - hits_before
        if hits:
            self.trace_incr("sim.network_cache_hits", hits)
        return iter(tasks)


def run_sweep(model: Union[Model, ReactionNetwork], spec: SweepSpec,
              t_end: float, quantum: float, sample_every: float,
              n_sim_workers: int = 4, engine_kernel: str = "numpy",
              method: str = "exact",
              backend: str = "threads",
              observable_names: Optional[Sequence[str]] = None,
              tracer: Optional[Tracer] = None,
              trace: bool = False,
              engine_factory=None,
              stop_requested=None) -> SweepResult:
    """Run ``spec`` over ``model`` and reduce it to per-point summaries.

    One farm runs the whole sweep: every fused block advances many
    points per quantum, returns one result block for it, and a single
    aligner + accumulator produce the ``(point, cut)`` matrices.  Point
    ``p``'s trajectories are bit-identical to a solo
    ``engine="batch"`` run of ``model.with_rates(spec.points[p])``
    seeded ``spec.seed_of(p)`` (single block, same kernel).

    ``engine_factory`` (index -> engine node) swaps the simulation
    engine implementation, exactly like
    :func:`~repro.pipeline.builder.build_workflow` -- the service uses
    it to route quanta through its shared fleet.  ``stop_requested`` (a
    zero-argument callable) drains the sweep early at the next quantum
    boundaries when it returns True (steered cancellation); cuts never
    reached stay NaN in ``times`` and zero in the matrices.
    """
    if isinstance(model, ReactionNetwork):
        network = model
    else:
        network = ReactionNetwork.from_model(model)
    if observable_names is None:
        observable_names = tuple(network.observables)
    if engine_factory is None:
        engine_factory = lambda i: SimEngineNode(  # noqa: E731
            name=f"sim-eng-{i}")
    n_cuts = int(round(t_end / sample_every)) + 1
    accumulator = SweepAccumulator(
        spec.n_points, spec.n_trajectories, n_cuts,
        len(observable_names))
    source = _FusedTaskSource(network, spec, t_end, quantum, sample_every,
                              engine_kernel, method)
    farm = Farm(
        [engine_factory(i) for i in range(n_sim_workers)],
        emitter=SimTaskEmitter(stop_requested=stop_requested),
        collector=TrajectoryAligner(spec.n_rows),
        feedback=True,
        name="sweep-farm")
    if tracer is None and trace:
        tracer = Tracer()
    from repro.ff.pipeline import Pipeline
    ff_run(Pipeline([source, farm, accumulator], name="sweep"),
           backend=backend, trace=tracer)
    result = SweepResult(
        spec=spec, observable_names=tuple(observable_names),
        times=accumulator.times, mean=accumulator.mean,
        variance=accumulator.variance)
    if tracer is not None:
        result.trace_report = tracer.report()
    return result
