"""repro.gpu: a SIMT (CUDA-like) execution model and offloading patterns.

The paper offloads blocks of CWC simulations to an NVidia K40 through
FastFlow's ``ff_mapCUDA`` node, and analyses why: in the SIMT model all
threads of a warp advance in lockstep, so the very uneven per-quantum cost
of Gillespie trajectories turns into *thread divergence* -- a warp takes
as long as its slowest thread.  The CWC design mitigates this by keeping
quanta short and re-balancing (re-grouping) simulations after every
quantum (Table I's Q/tau sensitivity).

* :mod:`repro.gpu.device` -- device specifications (the K40 preset);
* :mod:`repro.gpu.simt` -- the SIMT executor: functionally runs a kernel
  per item while modeling warp-lockstep timing, occupancy-limited warp
  slots and kernel-launch overhead;
* :mod:`repro.gpu.map_cuda` -- the ``ff_mapCUDA`` equivalent: a pool of
  devices that runs the one workflow's quanta as kernels
  (``run_workflow(..., pool=DevicePool(devices))``);
* :mod:`repro.gpu.real` -- a real CUDA device behind the same launch
  surface (CuPy only);
* :mod:`repro.gpu.stencil_reduce` -- FastFlow's GPU core pattern
  ``stencilReduce``.
"""

from repro.gpu.device import GPUSpec, tesla_k40
from repro.gpu.simt import (
    GpuRunStats,
    KernelStats,
    SimtDevice,
    simulate_gpu_run,
    simulate_gpu_run_ssa,
)
from repro.gpu.map_cuda import DevicePool
from repro.gpu.real import RealGpuDevice, real_gpu_available
from repro.gpu.stencil_reduce import stencil_reduce

__all__ = [
    "GPUSpec",
    "tesla_k40",
    "SimtDevice",
    "KernelStats",
    "simulate_gpu_run",
    "simulate_gpu_run_ssa",
    "GpuRunStats",
    "DevicePool",
    "RealGpuDevice",
    "real_gpu_available",
    "stencil_reduce",
]
