"""The ``ff_mapCUDA`` equivalent: stream-offloading to a SIMT device.

A :class:`MapCUDANode` sits in a streaming graph like any other node; each
service call receives a *block* of simulation tasks, advances every task
by one simulation quantum on the device (functionally real execution,
modeled timing -- see :mod:`repro.gpu.simt`) and emits the quantum's
result items downstream (a :class:`~repro.sim.task.ResultBlock` per
task: one trajectory for a scalar task, the whole lockstep block for a
batch task).  Incomplete blocks are fed back
for the next quantum with optional re-balancing, mirroring the CWC
design that "manages blocks of simulations as a FastFlow stream,
splitting them in successive quanta and implementing a load
re-balancing strategy after the computation of each quantum".

A block is either a list of scalar
:class:`~repro.sim.task.SimulationTask` objects (one Python kernel call
per thread) or one :class:`~repro.sim.task.BatchSimulationTask` (the NumPy
lockstep engine advances the whole block in a single vectorized kernel --
the faithful rendering of the paper's CUDA kernel, where one launch
advances every instance by a quantum).  Either way the per-thread work
fed to the warp timing model is *measured* from the real execution.

FastFlow's Unified-Memory story maps to: tasks are ordinary Python
objects, no manual serialisation is needed to cross the host/device
boundary, and the model charges a per-byte unified-memory migration cost
per quantum.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.ff.node import GO_ON, Node
from repro.gpu.simt import SimtDevice
from repro.sim.task import BatchSimulationTask, ResultBlock, SimulationTask

#: modeled unified-memory traffic per task per quantum, in bytes
TASK_MESSAGE_BYTES = 2048.0


class MapCUDANode(Node):
    """Farm-worker-like node offloading blocks of tasks to one device.

    Input: a list of :class:`~repro.sim.task.SimulationTask` or one
    :class:`~repro.sim.task.BatchSimulationTask` (a block).
    Output: the block's quantum (one :class:`~repro.sim.task.ResultBlock`
    per scalar task or for the batch task), followed by feedback of the
    (still incomplete) block.
    """

    def __init__(self, device: SimtDevice, rebalance: bool = True,
                 name: str = "mapCUDA"):
        super().__init__(name=name)
        self.device = device
        self.rebalance = rebalance
        self.blocks_processed = 0
        self._last_cost: dict[int, float] = {}

    def svc(self, block: Union[Sequence[SimulationTask],
                               BatchSimulationTask]):
        if isinstance(block, BatchSimulationTask):
            return self._svc_batch(block)
        return self._svc_scalar(block)

    def _svc_batch(self, block: BatchSimulationTask):
        """One vectorized kernel advances the whole lockstep batch."""
        if block.done:
            return GO_ON
        steps_before = block.steps_by_trajectory.copy()
        # warp re-grouping: order threads by their previous-quantum cost
        # so similar-cost trajectories share a warp
        if self.rebalance and self._last_cost:
            order = sorted(
                range(block.n),
                key=lambda i: self._last_cost.get(block.task_ids[i], 0.0))
        else:
            order = list(range(block.n))

        def work_of(batch: BatchSimulationTask, _results) -> list[float]:
            per_thread = batch.steps_by_trajectory - steps_before
            return [float(per_thread[i]) for i in order]

        result, _stats = self.device.launch_map_batched(
            BatchSimulationTask.run_quantum, block, work_of,
            bytes_moved=block.n * TASK_MESSAGE_BYTES)
        per_thread = block.steps_by_trajectory - steps_before
        for i, task_id in enumerate(block.task_ids):
            self._last_cost[task_id] = float(per_thread[i])
        if len(result) or result.done:
            self.ff_send_out(result)
        self.blocks_processed += 1
        if self.has_feedback:
            self.send_feedback(block)
        elif not block.done:
            return self._svc_batch(block)
        return GO_ON

    def _svc_scalar(self, block: Sequence[SimulationTask]):
        tasks = [t for t in block if not t.done]
        if not tasks:
            return GO_ON
        if self.rebalance and self._last_cost:
            tasks.sort(key=lambda t: self._last_cost.get(t.task_id, 0.0))

        steps_before = {t.task_id: t.steps for t in tasks}

        def kernel(task: SimulationTask) -> ResultBlock:
            return task.run_quantum()

        def work_of(task: SimulationTask, _result: ResultBlock) -> float:
            return task.steps - steps_before[task.task_id]

        results, _stats = self.device.launch_map(
            kernel, tasks, work_of,
            bytes_moved=sum(2048.0 for _ in tasks))
        for task, result in zip(tasks, results):
            self._last_cost[task.task_id] = work_of(task, result)
            if len(result) or result.done:
                self.ff_send_out(result)
        remaining = [t for t in tasks if not t.done]
        self.blocks_processed += 1
        if self.has_feedback:
            # always feed the block back: the emitter retires it once
            # every task is done (and re-dispatches it otherwise)
            self.send_feedback(remaining if remaining else tasks)
        elif remaining:
            # no feedback edge: loop the block locally to completion
            return self.svc(remaining)
        return GO_ON
