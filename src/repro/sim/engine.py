"""The *simulation engine* farm worker (the paper's ``sim eng`` boxes).

Each engine receives a :class:`~repro.sim.task.SimulationTask` (or a
:class:`~repro.sim.task.BatchSimulationTask` covering a whole block of
lockstep trajectories), brings it forward by exactly one simulation
quantum, streams the quantum's one result item (a
:class:`~repro.sim.task.QuantumResult`, or the batch task's
:class:`~repro.sim.task.ResultBlock`) downstream towards trajectory
alignment and reschedules the task back to the emitter along the farm's
feedback channel.
"""

from __future__ import annotations

from typing import Union

from repro.ff.node import GO_ON, Node
from repro.sim.task import BatchSimulationTask, SimulationTask


class SimEngineNode(Node):
    """Farm worker: one quantum per service call; see module docstring."""

    def __init__(self, name: str = "sim-eng"):
        super().__init__(name=name)
        self.quanta_executed = 0
        self.steps_executed = 0

    def svc_init(self) -> None:
        self.quanta_executed = 0
        self.steps_executed = 0

    def svc(self, task: Union[SimulationTask, BatchSimulationTask]):
        steps_before = task.steps
        result = task.run_quantum()
        self.quanta_executed += 1
        steps = task.steps - steps_before
        self.steps_executed += steps
        if len(result) or result.done:
            self.ff_send_out(result)
        self.trace_incr("sim.steps", steps)
        self.trace_incr("sim.quanta", 1)
        if result.done:
            self.trace_incr("sim.trajectories_retired", result.n_members)
        self.send_feedback(task)
        return GO_ON
