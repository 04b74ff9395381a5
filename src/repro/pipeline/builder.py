"""Assemble and run the complete simulation-analysis workflow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.analysis.engines import GatherNode, StatEngineNode, WindowStatistics
from repro.analysis.stats import CutStatistics
from repro.analysis.windows import SlidingWindowNode
from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.ff.farm import Farm
from repro.ff.node import GO_ON, Node
from repro.ff.pipeline import Pipeline
from repro.ff.executor import run as ff_run
from repro.ff.trace import RunReport, Tracer
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.steering import SteeringController
from repro.sim.alignment import TrajectoryAligner
from repro.sim.engine import SimEngineNode
from repro.sim.scheduler import SimTaskEmitter, TaskGenerator
from repro.sim.trajectory import (Cut, Trajectory, assemble_trajectories,
                                  iter_cuts)


class _CutTee(Node):
    """Optional stage retaining raw cuts for post-hoc use (examples that
    need whole trajectories); forwards every item unchanged.  CutBlock
    batches are expanded into per-grid cuts in the store so downstream
    consumers (``WorkflowResult.trajectories``) see one representation."""

    def __init__(self, store: list, name: str = "cut-tee"):
        super().__init__(name=name)
        self.store = store

    def svc(self, item):
        self.store.extend(iter_cuts([item]))
        return item


class _ProgressNode(Node):
    """Feeds the steering controller with every analysed window.

    The controller's ``_notify`` may veto a window (an adaptive stop
    suppresses everything past its decision window so every backend
    reports the same truncated set); vetoed windows are dropped here.
    Counters the controller's policies produced (``adapt.*``) are flushed
    into the run report on the way through."""

    def __init__(self, controller: SteeringController, name: str = "progress"):
        super().__init__(name=name)
        self.controller = controller

    def svc(self, stats: WindowStatistics):
        keep = self.controller._notify(stats)
        for counter, n in self.controller.drain_counters():
            self.trace_incr(counter, n)
        return stats if keep else GO_ON


@dataclass
class WorkflowResult:
    """Everything a run produced, plus summary helpers."""

    config: WorkflowConfig
    windows: list[WindowStatistics]
    cuts: list[Cut] = field(default_factory=list)
    #: runtime metrics of the run (``config.trace=True``), else None
    trace_report: Optional[RunReport] = None

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def cut_statistics(self) -> list[CutStatistics]:
        """Per-cut summaries across all windows, deduplicated by grid
        index (overlapping windows recompute shared cuts) and in grid
        order."""
        by_grid: dict[int, CutStatistics] = {}
        for window in self.windows:
            for stats in window.cuts:
                by_grid.setdefault(stats.grid_index, stats)
        return [by_grid[k] for k in sorted(by_grid)]

    def mean_trajectory(self, observable: int) -> tuple[list[float], list[float]]:
        """``(times, ensemble mean)`` for one observable."""
        stats = self.cut_statistics()
        return ([s.time for s in stats],
                [s.mean[observable] for s in stats])

    def trajectories(self) -> list[Trajectory]:
        """Re-assembled full trajectories (requires ``keep_cuts=True``)."""
        if not self.cuts:
            raise ValueError(
                "no raw cuts were retained; run with keep_cuts=True")
        return assemble_trajectories(self.cuts, self.config.n_simulations)


def analysis_stages(config: WorkflowConfig,
                    cut_store: Optional[list] = None,
                    controller: Optional[SteeringController] = None
                    ) -> list:
    """The analysis half of Fig. 2 as a list of pipeline stages: optional
    cut tee, sliding window, ordered farm of statistical engines,
    optional steering tap.

    Shared by every backend (in-process executors, the TCP cluster, the
    virtual cluster and the GPU workflow) so any analysis-plane change
    lives in exactly one place.
    """
    stages: list = []
    if cut_store is not None:
        stages.append(_CutTee(cut_store))
    stages.append(SlidingWindowNode(config.window_size, config.window_slide))
    stat_farm = Farm(
        [StatEngineNode(kmeans_k=config.kmeans_k,
                        filter_width=config.filter_width,
                        histogram_bins=config.histogram_bins,
                        name=f"stat-eng-{i}")
         for i in range(config.n_stat_workers)],
        collector=GatherNode(),
        ordered=True,
        scheduling=config.scheduling,
        name="stat-farm")
    stages.append(stat_farm)
    if controller is not None:
        stages.append(_ProgressNode(controller))
    return stages


def task_generator(model: Union[Model, ReactionNetwork],
                   config: WorkflowConfig, n_workers: int) -> TaskGenerator:
    """The task source of a run on ``n_workers`` simulation workers.

    Knowing the worker count lets the batch engine fuse seed blocks into
    wider lockstep tasks (DESIGN.md par.8) -- except under
    ``adaptive_repriority``, whose unit of scheduling is the task: only
    tasks beyond the dispatch slots wait in the re-keyable backlog, and
    fusing down to even three tasks per worker left it nothing to
    reorder (EXPERIMENTS.md, "Lockstep width").
    """
    return TaskGenerator(
        model, config.n_simulations, config.t_end, config.quantum,
        config.sample_every, seed=config.seed, engine=config.engine,
        batch_size=config.batch_size,
        engine_kernel=config.engine_kernel,
        method=config.method,
        n_workers=None if config.adaptive_repriority else n_workers)


def build_workflow(model: Union[Model, ReactionNetwork],
                   config: WorkflowConfig,
                   controller: Optional[SteeringController] = None,
                   cut_store: Optional[list] = None,
                   engine_factory: Optional[Callable[[int], Node]] = None
                   ) -> Pipeline:
    """Wire the paper's Fig. 2 architecture for ``model``.

    The returned :class:`~repro.ff.pipeline.Pipeline` streams
    :class:`~repro.analysis.engines.WindowStatistics` objects as its
    output; run it with :func:`repro.ff.run` or via :func:`run_workflow`.
    ``engine_factory`` (index -> worker node) swaps the simulation engine
    implementation -- the service uses it to substitute
    :class:`~repro.distributed.procfarm.ProcessSimEngineNode`.
    """
    if engine_factory is None:
        engine_factory = lambda i: SimEngineNode(name=f"sim-eng-{i}")  # noqa: E731
    generator = task_generator(model, config, config.n_sim_workers)
    stop_requested = (
        (lambda: controller.stop_requested) if controller is not None
        else None)
    # re-prioritisation needs the emitter to *hold* runnable work: bound
    # the outstanding quanta to a small multiple of the worker count so
    # the rest waits in the re-keyable backlog instead of the channels
    priority_window = (2 * config.n_sim_workers
                       if config.adaptive_repriority else None)
    emitter = SimTaskEmitter(stop_requested=stop_requested,
                             priority_window=priority_window)
    if controller is not None:
        controller.attach_scheduler(emitter)
    sim_farm = Farm(
        [engine_factory(i) for i in range(config.n_sim_workers)],
        emitter=emitter,
        collector=TrajectoryAligner(config.n_simulations),
        feedback=True,
        scheduling=config.scheduling,
        name="sim-farm")
    stages: list = [generator, sim_farm]
    stages.extend(analysis_stages(config, cut_store=cut_store,
                                  controller=controller))
    return Pipeline(stages, name="cwc-workflow")


def run_workflow(model: Union[Model, ReactionNetwork],
                 config: WorkflowConfig,
                 controller: Optional[SteeringController] = None,
                 tracer: Optional[Tracer] = None) -> WorkflowResult:
    """Build and execute the workflow; see :func:`build_workflow`.

    With ``config.trace`` (or an explicit ``tracer``) the run records
    per-node service times, per-channel occupancy and simulation counters
    (steps, quanta, trajectories retired); the resulting
    :class:`~repro.ff.trace.RunReport` lands in
    :attr:`WorkflowResult.trace_report` and, when
    ``config.trace_report_path`` is set, as a JSON file on disk.

    ``config.backend`` selects the runtime: the in-process executors
    (``"threads"`` / ``"sequential"``) or the TCP master/worker runtime
    of :mod:`repro.distributed.net` with worker processes spawned on
    this host (``"processes"`` and ``"cluster"`` both name it).  All of
    them produce bit-identical results for the same seeds.
    """
    if controller is None and config.adaptive:
        # lazy import: repro.pipeline.adaptive imports this module back
        from repro.pipeline.adaptive import make_adaptive_controller
        controller = make_adaptive_controller(config)
    if tracer is None and (config.trace or config.adaptive):
        tracer = Tracer()
    if config.backend in ("processes", "cluster"):
        from repro.distributed.net import run_workflow_cluster
        result = run_workflow_cluster(model, config, controller=controller,
                                      tracer=tracer)
    else:
        cut_store: Optional[list] = [] if config.keep_cuts else None
        workflow = build_workflow(model, config, controller=controller,
                                  cut_store=cut_store)
        windows = ff_run(workflow, backend=config.backend, trace=tracer)
        result = WorkflowResult(config=config, windows=windows,
                                cuts=cut_store or [])
    if tracer is not None:
        result.trace_report = tracer.report()
        if config.trace_report_path:
            result.trace_report.save(config.trace_report_path)
    return result
