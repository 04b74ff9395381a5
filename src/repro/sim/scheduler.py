"""Task generation and quantum-based rescheduling (the farm emitter).

``TaskGenerator`` is the paper's *generation of simulation tasks* stage:
it turns a model and run parameters into independent simulation tasks,
"each of them wrapped in a C++ object" -- here, a picklable Python object.

``SimTaskEmitter`` is the scheduling logic of the *farm of simulation
engines*, and the only scheduler on every backend: dispatch tasks on
demand, re-dispatch every incomplete task that comes back on the feedback
channel, and end the stream once every task has reached its simulation
end time.  One dispatch is one chain of quanta: an engine runs quanta
until one yields a sample or the task is done
(:func:`~repro.sim.engine.run_quantum`), so the emitter sees a task at
most once per sampling interval.  What comes back is whatever the
engines' pool returned -- the live task, or, from a worker-process pool,
the task's :class:`~repro.distributed.net.Checkpoint`; the emitter reads only
``done`` and (through a priority key) ``time``.  An optional
:class:`SteeringHook` lets a front-end steer/terminate the run while it is
in flight (the paper's GUI can "start new simulations, steer and terminate
running simulations").
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Callable, Iterable, Optional, Union

from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.ff.farm import Feedback, MasterWorkerEmitter
from repro.ff.node import EOS, GO_ON, SourceNode
from repro.sim.task import SimulationTask, make_tasks


class TaskSource(SourceNode):
    """Source stage streaming the tasks ``make()`` builds when the graph
    starts: what feeds a run's :class:`SimTaskEmitter`."""

    def __init__(self, make: Callable[[], list], name: str = "task-gen"):
        super().__init__(name=name)
        self.make = make

    def build_tasks(self) -> tuple[list, dict[str, int]]:
        """The run's tasks and the run-report counters describing them
        (subclasses add what they know about the tasks they built)."""
        from repro.cwc.batch import network_cache_stats
        hits_before = network_cache_stats()["hits"]
        tasks = self.make()
        return tasks, {
            "sim.network_cache_hits":
                network_cache_stats()["hits"] - hits_before,
            "sim.tasks_generated": len(tasks),
        }

    def generate(self) -> Iterable[SimulationTask]:
        tasks, counters = self.build_tasks()
        for counter, value in counters.items():
            if value:
                self.trace_incr(counter, value)
        return iter(tasks)


class TaskGenerator(TaskSource):
    """Source stage generating the independent simulation tasks."""

    def __init__(self, model: Union[Model, ReactionNetwork],
                 n_simulations: int, t_end: float, quantum: float,
                 sample_every: float, seed: Optional[int] = 0,
                 engine: str = "auto", batch_size: int = 64,
                 engine_kernel: str = "numpy",
                 method: str = "exact",
                 n_workers: Optional[int] = None,
                 name: str = "task-gen"):
        super().__init__(self._make, name=name)
        if n_simulations < 1:
            raise ValueError(f"need >= 1 simulation, got {n_simulations}")
        self.model = model
        self.n_simulations = n_simulations
        self.t_end = t_end
        self.quantum = quantum
        self.sample_every = sample_every
        self.seed = seed
        self.engine = engine
        self.batch_size = batch_size
        self.engine_kernel = engine_kernel
        self.method = method
        #: how many tasks the runtime wants to keep runnable: lets the
        #: batch engine fuse seed blocks into wider lockstep tasks
        #: (:func:`~repro.sim.task.make_batch_tasks`); None keeps one
        #: task per seed block
        self.n_workers = n_workers

    def _make(self) -> list[SimulationTask]:
        return make_tasks(self.model, self.n_simulations, self.t_end,
                          self.quantum, self.sample_every,
                          seed=self.seed, engine=self.engine,
                          batch_size=self.batch_size,
                          engine_kernel=self.engine_kernel,
                          method=self.method, n_workers=self.n_workers)

    def build_tasks(self) -> tuple[list[SimulationTask], dict[str, int]]:
        tasks, counters = super().build_tasks()
        # what width actually ran: seed blocks are the RNG streams the
        # recorded seed fixes, tasks what the runtime made of them
        batch = self.engine == "batch"
        counters["sim.seed_blocks"] = (
            -(-self.n_simulations // self.batch_size) if batch
            else self.n_simulations)
        counters["sim.lockstep_rows_max"] = (
            max(task.n for task in tasks) if batch else 1)
        return tasks, counters


class SimTaskEmitter(MasterWorkerEmitter):
    """Master-worker emitter rescheduling incomplete tasks (see module
    docstring).  ``stop_requested`` (a zero-argument callable) is polled on
    every reschedule: when it returns True, in-flight tasks are retired
    instead of re-dispatched and queued tasks are cancelled outright,
    draining the run early.  A reschedule happens at the end of a chain,
    not after every quantum: steering stops, adaptive retirement and
    :meth:`repriority` take effect at the next sample a task reaches (or
    its horizon), which is the granularity windows see anyway.

    The emitter holds its runnable work in a **priority-queue backlog**
    rather than flooding the worker channels: at most ``priority_window``
    dispatches are outstanding (sent, not yet fed back) at any time, the
    rest wait in a heap ordered by the current priority key (FIFO by
    default).  :meth:`repriority` re-keys the backlog mid-run -- the hook
    the adaptive policy layer drives -- and because un-dispatched work
    stays here, a re-prioritised task simply starves behind higher-priority
    ones until a window slot frees up: preemption by starvation, no task
    kill.  ``priority_window=None`` (the default) dispatches immediately,
    preserving the historical flood-the-channels behaviour.

    Counters: ``sim.quanta_dispatched`` counts dispatches, not quanta (each
    is a chain of quanta; the engines count quanta run as ``sim.quanta``),
    and only actual ones (a dispatch cancelled from the backlog at stop
    time never ran -- that is the adaptive saving),
    ``sim.tasks_completed`` counts tasks that reached
    their full horizon, ``sim.tasks_retired`` counts tasks retired early by
    steering.
    """

    def __init__(self, stop_requested: Optional[Callable[[], bool]] = None,
                 priority_window: Optional[int] = None,
                 on_repriority: Optional[Callable[[int], None]] = None,
                 name: str = "sim-sched"):
        super().__init__(name=name)
        if priority_window is not None and priority_window < 1:
            raise ValueError(
                f"priority_window must be >= 1, got {priority_window}")
        self._stop_requested = stop_requested
        self.priority_window = priority_window
        self.on_repriority = on_repriority
        self.quanta_dispatched = 0
        self.tasks_completed = 0
        self.tasks_retired = 0
        # the backlog is touched from the emitter's executor thread and,
        # via repriority(), from the analysis thread running the adaptive
        # controller -- guard it
        self._lock = threading.Lock()
        self._backlog: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._priority_key: Optional[Callable[[Any], float]] = None
        self._outstanding = 0

    def svc_init(self) -> None:
        super().svc_init()
        self.quanta_dispatched = 0
        self.tasks_completed = 0
        self.tasks_retired = 0
        with self._lock:
            self._backlog = []
            self._seq = itertools.count()
            self._priority_key = None
        self._outstanding = 0

    # -- policy hooks ----------------------------------------------------
    def is_complete(self, task: SimulationTask) -> bool:
        if task.done:
            return True
        if self._stop_requested is not None and self._stop_requested():
            return True
        return False

    def on_complete(self, task: SimulationTask) -> None:
        # a task can be "complete" either because it reached its horizon
        # or because steering retired it early -- report them separately
        if task.done:
            self.tasks_completed += 1
            self.trace_incr("sim.tasks_completed", 1)
        else:
            self.tasks_retired += 1
            self.trace_incr("sim.tasks_retired", 1)

    # -- the backlog ------------------------------------------------------
    def repriority(self, key: Optional[Callable[[Any], float]]) -> int:
        """Re-key the backlog with ``key`` (ascending; ``None`` restores
        FIFO) and return how many queued tasks changed position.  Safe to
        call from any thread; newly enqueued tasks keep using the new key
        until the next call."""
        with self._lock:
            self._priority_key = key
            if not self._backlog:
                moved = 0
            else:
                before = [entry[2] for entry in sorted(self._backlog)]
                self._backlog = [
                    (self._key_of(task), seq, task)
                    for _, seq, task in self._backlog]
                heapq.heapify(self._backlog)
                after = [entry[2] for entry in sorted(self._backlog)]
                moved = sum(1 for a, b in zip(before, after) if a is not b)
        if moved and self.on_repriority is not None:
            self.on_repriority(moved)
        return moved

    def backlog_size(self) -> int:
        with self._lock:
            return len(self._backlog)

    def _key_of(self, task: Any) -> float:
        key = self._priority_key
        return 0.0 if key is None else key(task)

    def _enqueue(self, task: Any) -> None:
        with self._lock:
            heapq.heappush(self._backlog,
                           (self._key_of(task), next(self._seq), task))

    def _pump(self) -> None:
        """Dispatch from the backlog while the outstanding window has
        room.  Runs on the emitter thread only; the channel put may block
        on backpressure, so it happens outside the backlog lock."""
        while True:
            with self._lock:
                if not self._backlog:
                    return
                if (self.priority_window is not None
                        and self._outstanding >= self.priority_window):
                    return
                _, _, task = heapq.heappop(self._backlog)
                self._outstanding += 1
            self.quanta_dispatched += 1
            self.trace_incr("sim.quanta_dispatched", 1)
            self.ff_send_out(task)

    def _cancel_backlog(self) -> None:
        """Steering stop: retire every queued task without dispatching the
        quantum it was waiting for."""
        with self._lock:
            cancelled, self._backlog = self._backlog, []
        for _, _, task in cancelled:
            self.in_flight -= 1
            self.completed += 1
            self.on_complete(task)

    # -- wiring ------------------------------------------------------------
    def svc(self, item: Any) -> Any:
        if isinstance(item, Feedback):
            task = item.item
            self._outstanding -= 1
            if self.is_complete(task):
                self.in_flight -= 1
                self.completed += 1
                self.on_complete(task)
            else:
                self._enqueue(self.on_reschedule(task))
        else:
            self.in_flight += 1
            self._enqueue(self.on_task(item))
        if self._stop_requested is not None and self._stop_requested():
            self._cancel_backlog()
        self._pump()
        if self.upstream_done and self.in_flight == 0:
            return EOS
        return GO_ON
