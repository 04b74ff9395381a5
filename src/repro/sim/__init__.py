"""repro.sim: the simulation half of the paper's workflow (Fig. 2, left).

The pipeline is *generation of simulation tasks* -> *farm of simulation
engines* (with feedback rescheduling after every simulation quantum, for
load balancing) -> *alignment of trajectories* (sorting quantum results
into time-aligned cuts ready for on-line analysis).
"""

from repro.sim.task import (
    ResultBlock,
    SimulationTask,
    make_batch_tasks,
    make_tasks,
)
from repro.sim.trajectory import (
    Cut,
    CutBlock,
    Trajectory,
    assemble_trajectories,
    iter_cuts,
)
from repro.sim.engine import SimEngineNode
from repro.sim.scheduler import SimTaskEmitter, TaskGenerator
from repro.sim.alignment import TrajectoryAligner

__all__ = [
    "SimulationTask",
    "ResultBlock",
    "make_tasks",
    "make_batch_tasks",
    "Cut",
    "CutBlock",
    "Trajectory",
    "assemble_trajectories",
    "iter_cuts",
    "SimEngineNode",
    "SimTaskEmitter",
    "TaskGenerator",
    "TrajectoryAligner",
]
