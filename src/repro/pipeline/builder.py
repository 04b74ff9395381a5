"""Assemble and run the complete simulation-analysis workflow.

Fig. 2 is wired here and nowhere else: :func:`assemble_workflow` puts
the simulation half (task source -> feedback farm of engines ->
aligner) in front of whatever consumes the cuts, :func:`workflow_pool`
gives the engines the pool ``config.backend`` names (none in process,
a cluster master out of it), and :func:`execute_workflow` runs the
result.  :func:`run_workflow` is the three with :func:`analysis_stages`
for consumers, :func:`repro.sweep.run_sweep` the three with a fused
task source and a sweep accumulator, a service tenant either one with
a borrowed pool.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Union

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
from repro.sim.scheduler import SimTaskEmitter, TaskGenerator, TaskSource
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

    Shared by every backend (in-process executors, the TCP cluster and
    the GPU workflow) so any analysis-plane change lives in exactly one
    place.
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
                   config: WorkflowConfig) -> TaskGenerator:
    """The task source of a run.

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
        n_workers=(None if config.adaptive_repriority
                   else config.n_sim_workers))


def assemble_workflow(source: TaskSource, n_rows: int,
                      config: WorkflowConfig, consumers: list,
                      controller: Optional[SteeringController] = None,
                      stop_requested: Optional[Callable[[], bool]] = None,
                      pool: Any = None) -> Pipeline:
    """Wire the simulation half of Fig. 2 -- ``source``'s tasks, advanced
    a chain of quanta at a time, aligned into cuts of ``n_rows``
    trajectories -- in front of ``consumers``.

    One pattern on every backend (paper section IV-B: a port changes
    what runs the quanta, not the simulator): a feedback farm whose
    :class:`~repro.sim.scheduler.SimTaskEmitter` schedules every dispatch
    and whose engines run them on their own threads or hand them to
    ``pool`` (:func:`workflow_pool`: a
    :class:`~repro.distributed.net.ClusterMaster` under ``processes`` /
    ``cluster``, or a service tenant's shared fleet).  A pool that says
    how many quanta it holds at once (``lanes``) gets that many engines,
    otherwise ``config.n_sim_workers``.  ``controller`` (or a bare
    ``stop_requested`` callable) drains the run early; the controller is
    also linked to the emitter it may re-prioritise.
    """
    if controller is not None:
        stop_requested = lambda: controller.stop_requested  # noqa: E731
    lanes = getattr(pool, "lanes", config.n_sim_workers)
    # re-prioritisation needs the emitter to *hold* runnable work: bound
    # the outstanding quanta to a small multiple of the lane count so
    # the rest waits in the re-keyable backlog instead of the channels
    scheduler = SimTaskEmitter(
        stop_requested=stop_requested,
        priority_window=2 * lanes if config.adaptive_repriority else None)
    farm = Farm([SimEngineNode(pool, name=f"sim-eng-{i}")
                 for i in range(lanes)],
                emitter=scheduler,
                collector=TrajectoryAligner(n_rows),
                feedback=True,
                scheduling=config.scheduling,
                name="sim-farm")
    if controller is not None:
        controller.attach_scheduler(scheduler)
    return Pipeline([source, farm] + consumers, name="cwc-workflow")


@contextmanager
def workflow_pool(config: WorkflowConfig, pool: Any = None,
                  fault_hook: Optional[Callable] = None) -> Iterator[Any]:
    """The pool a run's engines hand their quanta to, for the run's
    duration: a borrowed ``pool`` as it is; under ``processes`` /
    ``cluster`` a started :class:`~repro.distributed.net.ClusterMaster`
    with ``config.n_sim_workers`` worker processes, closed when the run
    ends (``fault_hook`` goes to it, for chaos tests); else None, and
    each engine runs its quanta itself."""
    if pool is not None or config.backend not in ("processes", "cluster"):
        yield pool
        return
    from repro.distributed.net import ClusterMaster
    master = ClusterMaster(
        n_workers=config.n_sim_workers,
        inflight_window=config.cluster_inflight,
        heartbeat_interval=config.heartbeat_interval,
        heartbeat_timeout=config.heartbeat_timeout,
        fault_hook=fault_hook)
    try:
        master.start()
        yield master
    finally:
        master.close()


def execute_workflow(workflow: Pipeline, config: WorkflowConfig,
                     tracer: Optional[Tracer] = None, pool: Any = None
                     ) -> tuple[list, Optional[RunReport]]:
    """Run an assembled workflow: what its last stage emitted, and the
    run report when the run is traced (an explicit ``tracer``,
    ``config.trace`` or an adaptive policy, which reads it) -- also
    saved to ``config.trace_report_path`` if that is set.  A ``pool``
    with ``counters()`` (the cluster master) adds its ``net.*`` totals.

    Only ``sequential`` runs the graph on one thread."""
    if tracer is None and (config.trace or config.adaptive):
        tracer = Tracer()
    outputs = ff_run(
        workflow,
        backend="sequential" if config.backend == "sequential" else "threads",
        trace=tracer)
    if tracer is None:
        return outputs, None
    for counter, value in getattr(pool, "counters", dict)().items():
        if value:
            tracer.incr(counter, value)
    report = tracer.report()
    if config.trace_report_path:
        report.save(config.trace_report_path)
    return outputs, report


def build_workflow(model: Union[Model, ReactionNetwork],
                   config: WorkflowConfig,
                   controller: Optional[SteeringController] = None,
                   cut_store: Optional[list] = None,
                   pool: Any = None) -> Pipeline:
    """Wire the paper's Fig. 2 architecture for ``model``:
    :func:`assemble_workflow` in front of :func:`analysis_stages`.

    The returned :class:`~repro.ff.pipeline.Pipeline` streams
    :class:`~repro.analysis.engines.WindowStatistics` objects as its
    output; run it via :func:`run_workflow`.
    """
    return assemble_workflow(
        task_generator(model, config), config.n_simulations, config,
        analysis_stages(config, cut_store=cut_store, controller=controller),
        controller=controller, pool=pool)


def run_workflow(model: Union[Model, ReactionNetwork],
                 config: WorkflowConfig,
                 controller: Optional[SteeringController] = None,
                 tracer: Optional[Tracer] = None,
                 pool: Any = None,
                 fault_hook: Optional[Callable] = None) -> WorkflowResult:
    """Build and execute the workflow; see :func:`build_workflow`.

    With ``config.trace`` (or an explicit ``tracer``) the run records
    per-node service times, per-channel occupancy and simulation counters
    (steps, quanta, trajectories retired); the resulting
    :class:`~repro.ff.trace.RunReport` lands in
    :attr:`WorkflowResult.trace_report` and, when
    ``config.trace_report_path`` is set, as a JSON file on disk.

    ``config.backend`` selects what runs the quanta (see
    :func:`workflow_pool`); every choice -- and a ``pool`` borrowed
    from a shared fleet -- produces bit-identical results for the same
    seeds.
    """
    if controller is None and config.adaptive:
        # lazy import: repro.pipeline.adaptive imports this module back
        from repro.pipeline.adaptive import make_adaptive_controller
        controller = make_adaptive_controller(config)
    cut_store: Optional[list] = [] if config.keep_cuts else None
    with workflow_pool(config, pool, fault_hook) as pool:
        workflow = build_workflow(model, config, controller=controller,
                                  cut_store=cut_store, pool=pool)
        windows, report = execute_workflow(workflow, config, tracer, pool)
    return WorkflowResult(config=config, windows=windows,
                          cuts=cut_store or [], trace_report=report)
