"""The simulation engine of a run whose quanta execute on a shared fleet.

``backend="processes"`` used to be a farm of these nodes over a private
process pool; it is now the localhost TCP cluster of
:mod:`repro.distributed.net` (``run_workflow_cluster``), whose locally
spawned workers return results through the shared-memory ring.  What is
left here is the engine the *service* puts in each tenant's farm:
:class:`ProcessSimEngineNode` submits every quantum to an executor
facade (:class:`~repro.service.fleet.FleetClient`) and blocks, GIL
released, until the fleet -- a thread pool, or a served
:class:`~repro.distributed.net.ClusterMaster` -- hands the advanced task
and its results back.
"""

from __future__ import annotations

from typing import Any, Union

from repro.ff.node import GO_ON, Node
from repro.sim.task import BatchSimulationTask, SimulationTask


def _run_quantum(task):
    """What a thread fleet runs per submission: one quantum, state
    returned (a served master runs the same on its workers)."""
    result = task.run_quantum()
    return task, result


class ProcessSimEngineNode(Node):
    """Drop-in for :class:`~repro.sim.engine.SimEngineNode` that runs
    its quanta through ``pool.submit(_run_quantum, task)``.

    A batch quantum's block may be a view over shared-memory pages (a
    served master maps what its local workers published) and must be
    released exactly once: a result this node drops (empty, not done)
    is released here; a forwarded one by the aligner after ingest.
    """

    def __init__(self, pool: Any, name: str = "psim-eng"):
        super().__init__(name=name)
        self.pool = pool
        self.quanta_executed = 0

    def svc_init(self) -> None:
        self.quanta_executed = 0

    def svc(self, task: Union[SimulationTask, BatchSimulationTask]):
        steps_before = task.steps
        updated, result = self.pool.submit(_run_quantum, task).result()
        self.quanta_executed += 1
        if len(result) or result.done:
            self.ff_send_out(result)
        else:
            result.release()  # dropped: give back its segment now
        self.trace_incr("sim.steps", updated.steps - steps_before)
        self.trace_incr("sim.quanta", 1)
        if result.done:
            self.trace_incr("sim.trajectories_retired", result.n_members)
        self.send_feedback(updated)
        return GO_ON
