"""The SIMT executor: functional execution + warp-lockstep timing model.

``SimtDevice.launch_map_batched`` is the building block: one callable
advances a whole lockstep batch at once (the NumPy batch SSA engine,
:mod:`repro.cwc.batch`) and reports per-thread work, so results are
*real* -- the device is a timing model, not a functional mock -- and the
modeled kernel duration follows the measured work:

1. items are grouped into warps of ``warp_size`` in the given order;
2. a warp's execution time is ``max`` over its threads' work (lockstep:
   divergent threads stall their whole warp);
3. warps are dispatched onto ``resident_warps`` concurrent slots,
   greedily to the earliest-free slot (the hardware scheduler);
4. the kernel lasts until the last warp retires, plus launch overhead
   and unified-memory traffic.

Two whole-run drivers reproduce the Table I experiment:

* ``simulate_gpu_run`` on the workload cost model only (no real SSA);
* ``simulate_gpu_run_ssa`` on *real* stochastic simulation: a batched SSA
  engine advances every trajectory quantum by quantum, and the measured
  per-trajectory step counts feed the warp timing model.

Both support the inter-quantum re-balancing strategy: sorting simulations
by their previous-quantum cost before regrouping into warps, which is
exactly the CWC load re-balancing the paper credits for the GPU result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.gpu.device import GPUSpec
from repro.perfsim.workload import TrajectoryWorkload


@dataclass
class KernelStats:
    """Timing breakdown of one kernel launch."""

    duration: float
    n_items: int
    n_warps: int
    #: sum over warps of (max - mean) thread work, in seconds: the time
    #: lost to lockstep divergence
    divergence_loss: float
    busy_thread_time: float

    @property
    def divergence_ratio(self) -> float:
        """Fraction of warp time wasted on divergence (0 = perfect)."""
        total = self.busy_thread_time + self.divergence_loss
        return self.divergence_loss / total if total > 0 else 0.0


def _schedule_warps(warp_times: Sequence[float], slots: int) -> float:
    """Greedy earliest-free-slot dispatch; returns the makespan."""
    if not warp_times:
        return 0.0
    free = [0.0] * min(slots, len(warp_times))
    heapq.heapify(free)
    for duration in warp_times:
        start = heapq.heappop(free)
        heapq.heappush(free, start + duration)
    return max(free)


class SimtDevice:
    """A modeled SIMT device; see module docstring."""

    def __init__(self, spec: GPUSpec, step_cost: float = 1.0e-6):
        self.spec = spec
        #: seconds of GPU-thread time per unit of work (one SSA step)
        self.step_time = step_cost * spec.thread_slowdown
        self.kernels_launched = 0
        self.total_device_time = 0.0
        self.total_divergence_loss = 0.0

    def launch_map_batched(self, kernel: Callable[[Any], Any],
                           batch: Any,
                           work_of: Callable[[Any, Any], Sequence[float]],
                           bytes_moved: float = 0.0
                           ) -> tuple[Any, KernelStats]:
        """Execute one *batched* kernel; model its duration.

        ``kernel(batch)`` advances every thread of the batch at once (e.g.
        one vectorized SSA quantum over a lockstep
        :class:`~repro.sim.task.SimulationTask`);
        ``work_of(batch, result)`` reports the per-thread work units
        measured from that real execution.  Returns ``(result, stats)``.
        """
        result = kernel(batch)
        work = [float(w) for w in work_of(batch, result)]
        stats = self._timing(work, bytes_moved)
        return result, stats

    def launch_modeled(self, work: Sequence[float],
                       bytes_moved: float = 0.0) -> KernelStats:
        """Timing-only launch for pre-computed per-thread work units."""
        return self._timing(list(work), bytes_moved)

    def _timing(self, work: list[float], bytes_moved: float) -> KernelStats:
        warp_size = self.spec.warp_size
        warp_times = []
        divergence = 0.0
        busy = 0.0
        for base in range(0, len(work), warp_size):
            warp = work[base:base + warp_size]
            times = [w * self.step_time for w in warp]
            peak = max(times)
            busy += sum(times)
            # a partial warp still burns full lockstep lanes
            divergence += peak * len(warp) - sum(times)
            warp_times.append(peak)
        makespan = _schedule_warps(warp_times, self.spec.resident_warps)
        duration = (self.spec.kernel_launch_overhead + makespan
                    + bytes_moved * self.spec.unified_memory_cost_per_byte)
        self.kernels_launched += 1
        self.total_device_time += duration
        self.total_divergence_loss += divergence
        return KernelStats(duration=duration, n_items=len(work),
                           n_warps=len(warp_times),
                           divergence_loss=divergence,
                           busy_thread_time=busy)


@dataclass
class GpuRunStats:
    """Outcome of a full modeled GPU run (all quanta of all sims)."""

    total_time: float
    n_kernels: int
    mean_divergence_ratio: float
    collection_time: float


def simulate_gpu_run(workload: TrajectoryWorkload, device: SimtDevice,
                     rebalance: bool = True,
                     collection_cost_per_sim: float = 0.5e-6) -> GpuRunStats:
    """Model the GPU execution of a whole run (the Table I experiment).

    One kernel per simulation quantum advances *all* simulations by the
    quantum (the CUDA execution model forces a barrier: "collection of
    outcomes for a simulation quantum could not start until all the
    instances have completed the quantum").  With ``rebalance`` the
    simulations are re-ordered by their previous-quantum cost before
    being regrouped into warps, so similar-cost trajectories share a warp
    -- short quanta keep those estimates fresh, which is why quantum size
    matters on the GPU and not on the CPU.
    """
    n = workload.n_trajectories
    order = list(range(n))
    total = 0.0
    collection = 0.0
    divergence_ratios = []
    previous_cost = [0.0] * n
    for q in range(workload.n_quanta):
        if rebalance and q > 0:
            order.sort(key=lambda i: previous_cost[i])
        work = [workload.quantum_steps(i, q) for i in order]
        bytes_moved = n * workload.task_message_size()
        stats = device.launch_modeled(work, bytes_moved=bytes_moved)
        total += stats.duration
        divergence_ratios.append(stats.divergence_ratio)
        # host-side collection barrier after every kernel
        collect = n * collection_cost_per_sim
        collection += collect
        total += collect
        for position, i in enumerate(order):
            previous_cost[i] = work[position]
    mean_div = (sum(divergence_ratios) / len(divergence_ratios)
                if divergence_ratios else 0.0)
    return GpuRunStats(total_time=total, n_kernels=workload.n_quanta,
                       mean_divergence_ratio=mean_div,
                       collection_time=collection)


def simulate_gpu_run_ssa(network: Any, device: SimtDevice,
                         n_trajectories: int, t_end: float, quantum: float,
                         rebalance: bool = True,
                         seed: Optional[int] = 0,
                         task_message_size: float = 2048.0,
                         collection_cost_per_sim: float = 0.5e-6
                         ) -> tuple[GpuRunStats, "BatchFlatSimulator"]:
    """The Table I experiment on *real* SSA (see module docstring).

    A :class:`~repro.cwc.batch.BatchFlatSimulator` advances all
    ``n_trajectories`` of ``network`` (a flat
    :class:`~repro.cwc.network.ReactionNetwork` or compartment-free model)
    one quantum per kernel; each kernel's per-thread work is the *measured*
    SSA step count of that trajectory during the quantum.  With
    ``rebalance``, threads are regrouped into warps by their
    previous-quantum cost before timing.  Returns ``(stats, batch)`` so
    callers can inspect the final trajectory states.
    """
    from repro.cwc.batch import batch_simulator

    batch = batch_simulator(network, n_trajectories, seed=seed)
    n = n_trajectories
    order = list(range(n))
    previous_cost = [0.0] * n
    total = 0.0
    collection = 0.0
    divergence_ratios = []
    n_kernels = 0
    time_now = 0.0
    while time_now < t_end - 1e-12:
        target = min(time_now + quantum, t_end)
        if rebalance and n_kernels > 0:
            order.sort(key=lambda i: previous_cost[i])

        steps_before = batch.steps.copy()

        def kernel(b):
            return b.advance(target - time_now)

        def work_of(b, _result):
            per_thread = b.steps - steps_before
            return [float(per_thread[i]) for i in order]

        _, stats = device.launch_map_batched(
            kernel, batch, work_of,
            bytes_moved=n * task_message_size)
        total += stats.duration
        divergence_ratios.append(stats.divergence_ratio)
        collect = n * collection_cost_per_sim
        collection += collect
        total += collect
        per_thread = batch.steps - steps_before
        for i in range(n):
            previous_cost[i] = float(per_thread[i])
        n_kernels += 1
        time_now = target
    mean_div = (sum(divergence_ratios) / len(divergence_ratios)
                if divergence_ratios else 0.0)
    stats = GpuRunStats(total_time=total, n_kernels=n_kernels,
                        mean_divergence_ratio=mean_div,
                        collection_time=collection)
    return stats, batch
