"""GPU offloading with the mapCUDA pattern (Table I's experiment).

Run with::

    python examples/gpu_offload.py

Runs the workflow on a modeled NVidia K40 by handing its quanta to a
``DevicePool`` -- the ``ff_mapCUDA`` equivalent, passed to the same
``run_workflow`` every backend uses: execution is functionally real (the
NumPy batch SSA engine advances a whole block per kernel, the faithful
rendering of the paper's CUDA kernel, so the windows equal a threads
run's), while the SIMT device models warp-lockstep timing, thread
divergence, occupancy and launch overheads from the *measured*
per-trajectory step counts.  Prints a miniature Table I (CPU vs. GPU
across ensemble sizes and quantum settings) on real SSA, plus the
divergence diagnostics that explain it.
"""

from repro.gpu import DevicePool, SimtDevice, simulate_gpu_run_ssa, tesla_k40
from repro.models import neurospora_network
from repro.perfsim import CostModel
from repro.pipeline import WorkflowConfig, run_workflow


def functional_offload() -> None:
    """A real (small) run of the workflow on a one-device pool."""
    network = neurospora_network(omega=50)
    n, t_end = 8, 12.0
    config = WorkflowConfig(n_simulations=n, t_end=t_end, quantum=1.0,
                            sample_every=0.5, seed=2, engine="batch",
                            batch_size=n, keep_cuts=True)
    device = SimtDevice(tesla_k40(), step_cost=1e-6)
    pool = DevicePool([device])
    result = run_workflow(network, config, pool=pool)
    counters = pool.counters()
    print(f"offloaded {n} trajectories x {t_end:.0f} h: "
          f"{len(result.cuts)} aligned cuts, "
          f"{counters['gpu.kernels']} kernels launched, "
          f"modeled device time {counters['gpu.device_s'] * 1000:.1f} ms")
    final_m = [t.samples[-1][0] for t in result.trajectories()]
    print(f"final frq-mRNA counts per trajectory: {final_m}")
    threads = run_workflow(network, config)
    print(f"identical to threads: {result.windows == threads.windows}\n")


def table_one_mini() -> None:
    """Table I on real SSA: every row runs actual batched Gillespie
    trajectories; the K40 timing is modeled from the measured per-thread
    step counts (scaled-down ensemble/horizon to keep the example fast)."""
    cost = CostModel()
    network = neurospora_network(omega=100)
    t_end, sample = 6.0, 0.25
    print(f"{'N sims':>7} {'CPU(32)':>9} {'GPU q10':>9} {'GPU q1':>9} "
          f"{'div q10':>8} {'div q1':>7}")
    for n in (128, 512, 1024):
        row = {}
        for q_ratio in (10, 1):
            device = SimtDevice(tesla_k40(), step_cost=cost.step_cost)
            stats, batch = simulate_gpu_run_ssa(
                network, device, n_trajectories=n, t_end=t_end,
                quantum=sample * q_ratio, seed=5)
            cpu = batch.total_steps * cost.step_cost / 32
            row[q_ratio] = (cpu, stats)
        print(f"{n:>7} {row[10][0]:>9.3f} {row[10][1].total_time:>9.3f} "
              f"{row[1][1].total_time:>9.3f} "
              f"{row[10][1].mean_divergence_ratio:>8.2f} "
              f"{row[1][1].mean_divergence_ratio:>7.2f}")
    print("\nreading: the GPU loses at small ensembles (too little "
          "parallelism to hide divergence)\nand wins at 512-1024.  On "
          "this near-homogeneous circadian workload the measured\n"
          "divergence *rises* with short quanta (fewer steps per quantum "
          "-> noisier per-warp\ncosts); the paper's regime, where "
          "trajectory heterogeneity dominates and fresh\nre-balancing "
          "pays off, is reproduced by the cost-model bench "
          "(bench_table1_gpu).")


def main() -> None:
    functional_offload()
    table_one_mini()


if __name__ == "__main__":
    main()
