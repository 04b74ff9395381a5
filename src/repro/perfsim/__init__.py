"""repro.perfsim: a discrete-event performance simulator.

The paper's evaluation runs the CWC workflow on 2014 hardware (a 32-core
Nehalem workstation, an Infiniband cluster, Amazon EC2, an NVidia K40).
This package re-creates those experiments on *modeled* platforms: the same
streaming topology (emitter, sim-engine farm with feedback, alignment,
windows, stat farm) is executed by a discrete-event simulation where every
service and channel transfer takes modeled time.

Workloads are statistical models of the real Python engines, calibrated by
measuring per-quantum SSA step counts and per-stage service costs
(:mod:`repro.perfsim.workload`, :mod:`repro.perfsim.calibration`); what the
benches assert is the *shape* of the paper's results (speedup curves,
bottleneck onsets, CPU/GPU crossovers), which depends on topology,
granularity and relative costs -- not on 2014 absolute numbers.  See
DESIGN.md section 3.

Layers:

* :mod:`repro.perfsim.des` -- the DES kernel (environment, processes,
  stores; a minimal simpy work-alike);
* :mod:`repro.perfsim.platform` -- platform specs: hosts, cores, channel
  latency/bandwidth; presets for every platform in the paper;
* :mod:`repro.perfsim.workload` -- per-trajectory per-quantum cost traces;
* :mod:`repro.perfsim.costmodel` -- per-stage service-time constants;
* :mod:`repro.perfsim.runner` -- the workflow model: single multi-core
  runs and distributed farm-of-pipelines runs.
"""

from repro.perfsim.des import Environment, Store, Timeout
from repro.perfsim.platform import (
    ChannelSpec,
    HostSpec,
    PlatformSpec,
    intel32,
    cluster,
    ec2_virtual_cluster,
    heterogeneous_96,
)
from repro.perfsim.workload import TrajectoryWorkload, measure_workload
from repro.perfsim.costmodel import CostModel
from repro.perfsim.calibration import CalibrationReport, calibrate_cost_model
from repro.perfsim.runner import (
    PerfResult,
    simulate_workflow,
    simulate_distributed,
    speedup_curve,
)

__all__ = [
    "Environment",
    "Store",
    "Timeout",
    "ChannelSpec",
    "HostSpec",
    "PlatformSpec",
    "intel32",
    "cluster",
    "ec2_virtual_cluster",
    "heterogeneous_96",
    "TrajectoryWorkload",
    "measure_workload",
    "CostModel",
    "CalibrationReport",
    "calibrate_cost_model",
    "PerfResult",
    "simulate_workflow",
    "simulate_distributed",
    "speedup_curve",
]
