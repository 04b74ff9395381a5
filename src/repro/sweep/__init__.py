"""The sweep plane: many parameter points as one fused stream workload.

The paper's EC2 scenario runs *many small scenarios* -- a grid of
(model, rate constants) points, each a modest trajectory fleet.  Run
naively, every point pays full dispatch, compile and framing overhead.
This package fuses the parameter axis into the existing lockstep
machinery instead: a fused block advances ``points x trajectories`` rows
through one :class:`~repro.cwc.batch.BatchFlatSimulator` whose per-row
rate constants differ by point, bit-identical per point to solo runs via
a per-point RNG-stream discipline.  Results travel as every batch
task's do (one :class:`~repro.sim.task.ResultBlock` per quantum) and
land in a single columnar aligner; :func:`run_sweep` reduces the
aligned cuts to per-point summary matrices that
:mod:`repro.pipeline.storage` persists in a mmap-able columnar layout.
"""

from repro.sweep.fused import FusedSweepTask, make_fused_tasks
from repro.sweep.runner import SweepResult, run_sweep
from repro.sweep.spec import SweepSpec

__all__ = [
    "FusedSweepTask",
    "SweepResult",
    "SweepSpec",
    "make_fused_tasks",
    "run_sweep",
]
