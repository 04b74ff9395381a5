"""The *simulation engine* farm worker (the paper's ``sim eng`` boxes).

Each engine receives a :class:`~repro.sim.task.SimulationTask` (or a
:class:`~repro.sim.task.BatchSimulationTask` covering a whole block of
lockstep trajectories), brings it forward by a *chain* of simulation
quanta -- as many as it takes until one yields a sample or the task is
done (:func:`run_quantum`) -- streams that quantum's one result item (a
:class:`~repro.sim.task.ResultBlock` over the task's trajectories)
downstream towards trajectory alignment and reschedules the task back to
the emitter along the farm's feedback channel.  The quanta skipped
inside a chain crossed no grid point, so the item covers every grid
point the chain crossed, and a quantum that yields no sample is never a
stream item, a feedback hop or a round trip.  The result goes out
before the task goes back, so a trajectory's results enter the merge
channel in grid order -- the order the aligner relies on.

The chain runs on the engine's own thread, or wherever the run's
``pool`` puts it: a worker process of a
:class:`~repro.distributed.net.ClusterMaster` (``processes`` /
``cluster``), or a shared fleet's thread or worker process
(:mod:`repro.service.fleet`).  A worker-process pool keeps the task
where it runs and hands back its
:class:`~repro.distributed.net.Checkpoint` instead; the engine only
reads ``quanta`` and ``steps`` and feeds back what it got, so the next
chain goes to the worker that holds the task.
"""

from __future__ import annotations

from typing import Any, Union

from repro.ff.node import GO_ON, Node
from repro.sim.task import BatchSimulationTask, SimulationTask


def run_quantum(task):
    """Quanta of ``task`` until one yields a sample or the task is done:
    ``(advanced task, that quantum's result item)``.  What an engine
    runs per service call, here or through a pool (a worker process
    runs it too).  Every quantum keeps its boundary, so the trajectory
    is the one a loop of ``task.run_quantum()`` draws; only the empty
    items in between are never returned."""
    while True:
        result = task.run_quantum()
        if len(result) or result.done:
            return task, result


class SimEngineNode(Node):
    """Farm worker: one chain of quanta per service call; see module
    docstring.

    ``pool`` is anything with an executor's ``submit(fn, *args) ->
    future``; the engine blocks (GIL released) until the advanced task
    (or its checkpoint) and its result come back.  The block may then be
    a view over shared-memory pages; the aligner releases it after
    ingest.

    ``quanta_executed`` counts quanta run (the task's own count, read as
    a delta, so it holds on every backend), not service calls.
    """

    def __init__(self, pool: Any = None, name: str = "sim-eng"):
        super().__init__(name=name)
        self._advance = (
            run_quantum if pool is None
            else lambda task: pool.submit(run_quantum, task).result())
        self.quanta_executed = 0
        self.steps_executed = 0

    def svc_init(self) -> None:
        self.quanta_executed = 0
        self.steps_executed = 0

    def svc(self, task: Union[SimulationTask, BatchSimulationTask]):
        quanta_before, steps_before = task.quanta, task.steps
        task, result = self._advance(task)
        quanta = task.quanta - quanta_before
        steps = task.steps - steps_before
        self.quanta_executed += quanta
        self.steps_executed += steps
        self.ff_send_out(result)
        self.trace_incr("sim.steps", steps)
        self.trace_incr("sim.quanta", quanta)
        if result.done:
            self.trace_incr("sim.trajectories_retired", result.n_members)
        self.send_feedback(task)
        return GO_ON
