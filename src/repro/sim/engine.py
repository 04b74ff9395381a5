"""The *simulation engine* farm worker (the paper's ``sim eng`` boxes).

Each engine receives a :class:`~repro.sim.task.SimulationTask` (or a
:class:`~repro.sim.task.BatchSimulationTask` covering a whole block of
lockstep trajectories), brings it forward by exactly one simulation
quantum, streams the quantum's one result item (a
:class:`~repro.sim.task.QuantumResult`, or the batch task's
:class:`~repro.sim.task.ResultBlock`) downstream towards trajectory
alignment and reschedules the task back to the emitter along the farm's
feedback channel.

The quantum runs on the engine's own thread, or wherever the run's
``pool`` puts it: a worker process of a
:class:`~repro.distributed.net.ClusterMaster` (``processes`` /
``cluster``), or a shared fleet's thread or worker process
(:mod:`repro.service.fleet`).  A worker-process pool keeps the task
where it runs and hands back its
:class:`~repro.distributed.net.Checkpoint` instead; the engine only
reads ``steps`` and feeds back what it got, so the next quantum goes to
the worker that holds the task.
"""

from __future__ import annotations

from typing import Any, Union

from repro.ff.node import GO_ON, Node
from repro.sim.task import BatchSimulationTask, SimulationTask


def run_quantum(task):
    """One quantum of ``task``: ``(advanced task, result item)``.  What
    an engine runs per service call, here or through a pool."""
    result = task.run_quantum()
    return task, result


class SimEngineNode(Node):
    """Farm worker: one quantum per service call; see module docstring.

    ``pool`` is anything with an executor's ``submit(fn, *args) ->
    future``; the engine blocks (GIL released) until the advanced task
    (or its checkpoint) and its result come back.  A batch quantum's block may then be a
    view over shared-memory pages and must be released exactly once: a
    result this node drops (empty, not done) is released here, a
    forwarded one by the aligner after ingest.
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
        steps_before = task.steps
        task, result = self._advance(task)
        self.quanta_executed += 1
        steps = task.steps - steps_before
        self.steps_executed += steps
        if len(result) or result.done:
            self.ff_send_out(result)
        else:
            result.release()
        self.trace_incr("sim.steps", steps)
        self.trace_incr("sim.quanta", 1)
        if result.done:
            self.trace_incr("sim.trajectories_retired", result.n_members)
        self.send_feedback(task)
        return GO_ON
