"""The complete simulation-analysis workflow with GPU offloading.

The paper's portability claim, end to end: the same Fig. 2 architecture
with the farm of CPU simulation engines replaced by ``ff_mapCUDA`` nodes
-- "the user intervention would amount to writing the CUDA code for a
CUDA kernel which runs a simulation quantum for a single instance, then
wrapping it into ff_mapCUDA nodes (one for each GPGPU available)".

Simulations are streamed as *blocks*; each device advances its block one
quantum per kernel, feeds incomplete blocks back (with re-balancing) and
streams quantum results to the same trajectory-alignment / windowing /
statistics stages the CPU version uses.  Execution is functionally real;
device timing is modeled (see :mod:`repro.gpu.simt`), and the run result
carries the modeled device time next to the exact same statistics a CPU
run produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.ff.executor import run as ff_run
from repro.ff.farm import Farm, MasterWorkerEmitter
from repro.ff.graph import ToWorker
from repro.ff.node import SourceNode
from repro.ff.pipeline import Pipeline
from repro.gpu.device import tesla_k40
from repro.gpu.map_cuda import MapCUDANode
from repro.gpu.simt import SimtDevice
from repro.pipeline.builder import WorkflowResult, analysis_stages
from repro.pipeline.config import WorkflowConfig
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import (
    BatchSimulationTask,
    SimulationTask,
    make_batch_tasks,
    make_tasks,
)


class BlockGenerator(SourceNode):
    """Generate the simulation tasks and group them into device blocks.

    With ``engine="batch"`` each block *is* one
    :class:`~repro.sim.task.BatchSimulationTask` (the vectorized lockstep
    engine, advanced by a single kernel per quantum); otherwise a block is
    a list of scalar tasks.
    """

    def __init__(self, model: Union[Model, ReactionNetwork],
                 config: WorkflowConfig, block_size: int,
                 name: str = "block-gen"):
        super().__init__(name=name)
        self.model = model
        self.config = config
        self.block_size = block_size

    def generate(self):
        if self.config.engine == "batch":
            yield from make_batch_tasks(
                self.model, self.config.n_simulations, self.config.t_end,
                self.config.quantum, self.config.sample_every,
                seed=self.config.seed, batch_size=self.block_size)
            return
        tasks = make_tasks(
            self.model, self.config.n_simulations, self.config.t_end,
            self.config.quantum, self.config.sample_every,
            seed=self.config.seed, engine=self.config.engine)
        for base in range(0, len(tasks), self.block_size):
            yield tasks[base:base + self.block_size]


class BlockEmitter(MasterWorkerEmitter):
    """Dispatch blocks to devices with stable block->device affinity."""

    def __init__(self, n_devices: int, name: str = "gpu-dispatch"):
        super().__init__(name=name)
        self.n_devices = n_devices
        self._device_of: dict[int, int] = {}
        self._next = 0

    def _route(self, block) -> ToWorker:
        key = (block.task_ids[0] if isinstance(block, BatchSimulationTask)
               else block[0].task_id)
        device = self._device_of.get(key)
        if device is None:
            device = self._next
            self._next = (self._next + 1) % self.n_devices
            self._device_of[key] = device
        return ToWorker(device, block)

    def is_complete(self, block) -> bool:
        if isinstance(block, BatchSimulationTask):
            return block.done
        return all(task.done for task in block)

    def on_task(self, block) -> ToWorker:
        return self._route(block)

    def on_reschedule(self, block) -> ToWorker:
        return self._route(block)


@dataclass
class GpuWorkflowResult:
    """A WorkflowResult plus the modeled device accounting."""

    workflow: WorkflowResult
    devices: list[SimtDevice]

    @property
    def total_device_time(self) -> float:
        return sum(d.total_device_time for d in self.devices)

    @property
    def total_kernels(self) -> int:
        return sum(d.kernels_launched for d in self.devices)


def run_gpu_workflow(model: Union[Model, ReactionNetwork],
                     config: WorkflowConfig,
                     devices: Optional[list[SimtDevice]] = None,
                     block_size: int = 256,
                     rebalance: bool = True) -> GpuWorkflowResult:
    """Run the workflow with the simulation farm offloaded to devices.

    Results are bit-identical to a CPU run with the same seeds (the
    device is a timing model, not a functional approximation); the
    returned object additionally reports kernels launched and modeled
    device time.
    """
    if devices is None:
        devices = [SimtDevice(tesla_k40())]
    if not devices:
        raise ValueError("need at least one device")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")

    generator = BlockGenerator(model, config, block_size)
    gpu_farm = Farm(
        [MapCUDANode(device, rebalance=rebalance, name=f"mapCUDA{i}")
         for i, device in enumerate(devices)],
        emitter=BlockEmitter(len(devices)),
        collector=TrajectoryAligner(config.n_simulations),
        feedback=True,
        name="gpu-farm")
    cut_store: Optional[list] = [] if config.keep_cuts else None
    stages: list = [generator, gpu_farm]
    stages.extend(analysis_stages(config, cut_store=cut_store))
    windows = ff_run(Pipeline(stages, name="gpu-workflow"),
                     backend=config.backend)
    return GpuWorkflowResult(
        workflow=WorkflowResult(config=config, windows=windows,
                                cuts=cut_store or []),
        devices=devices)
