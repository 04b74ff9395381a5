"""An optional *real* GPU target behind the modeled SIMT surface.

:mod:`repro.gpu.simt` deliberately models a device (warp lockstep,
occupancy, launch overhead) so the paper's Table-I analysis runs
anywhere.  This module is the bridge to actual hardware: when CuPy and
a CUDA device are present, :class:`RealGpuDevice` exposes the same
``launch_map_batched`` shape as :class:`~repro.gpu.simt.SimtDevice`,
but the kernel really executes on the GPU (via the batch engine's
``"cupy"`` kernel, :mod:`repro.cwc.kernels`) and the returned
:class:`~repro.gpu.simt.KernelStats` carry measured wall-clock time
instead of modeled time.  ``DevicePool([RealGpuDevice()])`` with
``engine_kernel="cupy"`` runs the whole workflow that way
(:mod:`repro.gpu.map_cuda`).

Everything here is import-safe without CuPy: probing is lazy
(:func:`real_gpu_available`), and constructing the device without the
package raises the same :class:`~repro.cwc.kernels.KernelUnavailable`
the kernel layer uses, so callers and tests gate on one signal.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.cwc.kernels import (KernelUnavailable, kernel_available,
                               make_kernel)
from repro.gpu.simt import KernelStats


def real_gpu_available() -> bool:
    """True when CuPy is importable *and* a CUDA device answers."""
    return kernel_available("cupy")


class RealGpuDevice:
    """Wall-clock counterpart of :class:`~repro.gpu.simt.SimtDevice`.

    Same launch surface, no model: ``launch_map_batched`` runs the
    kernel (typically one batched SSA quantum whose simulator uses the
    ``"cupy"`` inner loop) and times it for real.  Divergence loss is
    reported as 0 -- the real device does not expose per-warp residency,
    so the stats carry only what was actually measured.
    """

    def __init__(self) -> None:
        if not real_gpu_available():
            raise KernelUnavailable(
                "RealGpuDevice needs the cupy package and a CUDA device "
                "(pip install 'repro[cupy]')")
        import cupy
        self._cp = cupy
        props = cupy.cuda.runtime.getDeviceProperties(
            cupy.cuda.runtime.getDevice())
        name = props.get("name", b"")
        self.device_name = (name.decode() if isinstance(name, bytes)
                            else str(name))
        self.kernels_launched = 0
        self.total_device_time = 0.0
        self.total_divergence_loss = 0.0  # parity with SimtDevice

    def make_kernel(self, compiled):
        """The ``"cupy"`` inner-loop kernel bound to ``compiled`` (for
        callers assembling their own simulators)."""
        return make_kernel("cupy", compiled)

    def launch_map_batched(self, kernel: Callable[[Any], Any],
                           batch: Any,
                           work_of: Callable[[Any, Any], Sequence[float]],
                           bytes_moved: float = 0.0
                           ) -> tuple[Any, KernelStats]:
        """Execute one batched kernel on the device; measure, don't model.

        Mirrors :meth:`SimtDevice.launch_map_batched`: ``kernel(batch)``
        runs the whole block, ``work_of(batch, result)`` reports the
        per-thread work units (kept for stats parity; they no longer
        drive the duration).  The device is synchronised before reading
        the clock so the wall time covers the full launch.
        """
        started = time.perf_counter()
        result = kernel(batch)
        self._cp.cuda.get_current_stream().synchronize()
        duration = time.perf_counter() - started
        work = [float(w) for w in work_of(batch, result)]
        self.kernels_launched += 1
        self.total_device_time += duration
        return result, KernelStats(duration=duration, n_items=len(work),
                                   n_warps=(len(work) + 31) // 32,
                                   divergence_loss=0.0,
                                   busy_thread_time=sum(work))
