"""The ``ff_mapCUDA`` equivalent: a pool of devices under the one workflow.

The paper's port to GPUs "would amount to writing the CUDA code for a
CUDA kernel which runs a simulation quantum for a single instance, then
wrapping it into ff_mapCUDA nodes (one for each GPGPU available)": the
workflow stays, what runs the quanta changes.  :class:`DevicePool` is
that swap.  It is a pool like the cluster master, so
``run_workflow(..., pool=DevicePool(devices))`` (or ``run_sweep``) wires
the same Fig. 2 farm (:func:`repro.pipeline.builder.assemble_workflow`)
with one engine per device, fuses seed blocks into one lockstep task
per device, and each engine's chain of quanta
(:func:`repro.sim.engine.run_quantum`) runs on its task's device.

Execution is functionally real -- the chain is the engine's own, so a
pool run's windows are a threads run's, bit for bit -- and the device
prices it (:mod:`repro.gpu.simt` models warp lockstep, divergence and
launch overhead; :class:`~repro.gpu.real.RealGpuDevice` measures).  The
per-thread work is each member trajectory's measured SSA step delta,
and threads are grouped into warps in the order of their previous cost,
the CWC design's "load re-balancing strategy after the computation of
each quantum".  A chain of q quanta counts as q kernels, priced as one
launch over the chain's work; nothing chains where ``quantum >=
sample_every``.

FastFlow's Unified-Memory story maps to: tasks are ordinary Python
objects, no manual serialisation is needed to cross the host/device
boundary, and the model charges a per-byte unified-memory migration cost
per launch.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Sequence

import numpy as np

#: modeled unified-memory traffic per task per quantum, in bytes
TASK_MESSAGE_BYTES = 2048.0


def _member_steps(task) -> tuple[range, np.ndarray]:
    """A task's member trajectory ids and their SSA step counts so far."""
    return task.task_ids, np.array(task.simulator.steps, ndmin=1)


class _Lane:
    """One device, the lock that serialises its launches, and what it
    remembers between them."""

    def __init__(self, device: Any):
        self.device = device
        self.lock = threading.Lock()
        self.kernels = 0
        #: member id -> SSA steps of its last chain (the warp order key)
        self.last_cost: dict[int, float] = {}


class DevicePool:
    """Runs the workflow's quanta as kernels on ``devices``; see module
    docstring.

    ``devices`` are :class:`~repro.gpu.simt.SimtDevice` or
    :class:`~repro.gpu.real.RealGpuDevice` objects (anything with their
    ``launch_map_batched`` and device-time totals).  A task keeps the
    device its first member id was first dispatched to.
    """

    def __init__(self, devices: Sequence[Any]):
        if not devices:
            raise ValueError("a device pool needs at least one device")
        self.devices = list(devices)
        #: the pool contract: dispatches run (``n_workers``) and held
        #: (``lanes``) at once -- one per device, one engine each (one
        #: ff_mapCUDA node per GPGPU)
        self.n_workers = self.lanes = len(self.devices)
        self._lanes = [_Lane(device) for device in self.devices]
        self._lane_of: dict[int, _Lane] = {}
        self._affinity = threading.Lock()

    def submit(self, fn: Callable[[Any], Any], task: Any) -> Future:
        """Run ``fn(task)`` (one chain of quanta) on ``task``'s device,
        on the caller's thread; a done future of its result or of the
        kernel's exception."""
        ids, before = _member_steps(task)
        with self._affinity:
            lane = self._lane_of.get(ids[0])
            if lane is None:
                lane = self._lanes[len(self._lane_of) % len(self._lanes)]
                self._lane_of[ids[0]] = lane
        future: Future = Future()
        try:
            with lane.lock:
                future.set_result(self._launch(lane, fn, task, ids, before))
        except Exception as exc:  # the engine's .result() re-raises it
            future.set_exception(exc)
        return future

    @staticmethod
    def _launch(lane: _Lane, fn: Callable[[Any], Any], task: Any,
                ids: range, before: np.ndarray) -> Any:
        order = sorted(range(len(ids)),
                       key=lambda i: lane.last_cost.get(ids[i], 0.0))
        quanta = task.quanta

        def work_of(task, _advanced) -> np.ndarray:
            work = _member_steps(task)[1] - before
            lane.last_cost.update(zip(ids, work.tolist()))
            return work[order]

        advanced, _stats = lane.device.launch_map_batched(
            fn, task, work_of, bytes_moved=len(ids) * TASK_MESSAGE_BYTES)
        lane.kernels += task.quanta - quanta
        return advanced

    def counters(self) -> dict[str, float]:
        """Run-report counters: kernels (quanta run on a device) and the
        devices' total and divergence-lost time, in seconds."""
        return {
            "gpu.kernels": sum(lane.kernels for lane in self._lanes),
            "gpu.device_s": sum(d.total_device_time for d in self.devices),
            "gpu.divergence_s": sum(d.total_divergence_loss
                                    for d in self.devices),
        }
