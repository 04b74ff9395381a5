"""repro.pipeline: the complete simulation-analysis workflow (Fig. 2).

``build_workflow`` wires the paper's main pipeline out of ff patterns:

    generation of simulation tasks
      -> farm of simulation engines   (feedback: quantum rescheduling)
      -> alignment of trajectories
      -> generation of sliding windows of trajectory cuts
      -> farm of statistical engines  (ordered; mean/variance/k-means)
      -> gather
      -> display of results / storage (the caller's sink)

``run_workflow`` executes it and returns a :class:`WorkflowResult`;
:class:`SteeringController` plays the role of the paper's GUI: it can
monitor partial results while the run is in flight and steer/terminate it.
"""

from repro.pipeline.config import WorkflowConfig
from repro.pipeline.builder import build_workflow, run_workflow, WorkflowResult
from repro.pipeline.steering import SteeringController, ProgressEvent
from repro.pipeline.adaptive import (
    AdaptiveController,
    ConvergenceStopPolicy,
    LaggardRepriorityPolicy,
    ParameterPoint,
    make_adaptive_controller,
    run_adaptive_sweep,
)
from repro.pipeline.storage import (
    save_cut_statistics,
    load_cut_statistics,
)

__all__ = [
    "WorkflowConfig",
    "build_workflow",
    "run_workflow",
    "WorkflowResult",
    "SteeringController",
    "ProgressEvent",
    "AdaptiveController",
    "ConvergenceStopPolicy",
    "LaggardRepriorityPolicy",
    "ParameterPoint",
    "make_adaptive_controller",
    "run_adaptive_sweep",
    "save_cut_statistics",
    "load_cut_statistics",
]
