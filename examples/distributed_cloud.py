"""The distributed / cloud CWC simulator.

Run with::

    python examples/distributed_cloud.py

Two halves, mirroring how the paper splits function from performance:

1. **Functional**: run the workflow on the cluster backend -- three
   worker processes behind real sockets, every task and result pickled,
   framed and checksummed.  The run's statistics are identical to a
   shared-memory run, and we report the traffic the master measured on
   each link, with what those bytes would cost on the paper's networks.
2. **Performance model**: feed the same kind of workload into the
   discrete-event platform models to project the run onto the paper's
   EC2 virtual cluster (Fig. 6): speedup vs. number of virtual cores.
"""

from repro.models import neurospora_network
from repro.perfsim import CostModel, TrajectoryWorkload, ec2_virtual_cluster
from repro.perfsim.platform import EC2_NETWORK, INFINIBAND_IPOIB
from repro.perfsim.runner import simulate_distributed
from repro.pipeline import WorkflowConfig, run_workflow

N_WORKERS = 3


def functional_half() -> None:
    network = neurospora_network(omega=50)
    base = dict(n_simulations=8, t_end=24.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=N_WORKERS, n_stat_workers=2, window_size=12,
                seed=3)

    local = run_workflow(network, WorkflowConfig(**base))
    remote = run_workflow(network, WorkflowConfig(
        **base, backend="cluster", trace=True))
    counters = remote.trace_report.counters

    print("distributed == shared-memory results:",
          local.windows == remote.windows)
    print(f"total traffic: {counters['net.messages_out']:.0f} messages out "
          f"/ {counters['net.messages_in']:.0f} in, "
          f"{counters['net.bytes_out'] / 1024:.1f} KiB out / "
          f"{counters['net.bytes_in'] / 1024:.1f} KiB in\n")
    for w in range(N_WORKERS):
        link = {field: counters[f"net.link.w{w}.{field}"]
                for field in ("bytes_out", "bytes_in",
                              "messages_out", "messages_in")}
        # every message pays the link latency, its bytes the line rate
        modeled = [
            1e3 * sum(link[f"messages_{way}"] * spec.transfer_time(
                link[f"bytes_{way}"] / link[f"messages_{way}"])
                for way in ("out", "in"))
            for spec in (INFINIBAND_IPOIB, EC2_NETWORK)]
        print(f"  link w{w}: {link['messages_out']:4.0f} msgs / "
              f"{link['bytes_out'] / 1024:6.1f} KiB down, "
              f"{link['messages_in']:4.0f} msgs / "
              f"{link['bytes_in'] / 1024:6.1f} KiB up; modeled network "
              f"time {modeled[0]:.2f} ms (IPoIB), "
              f"{modeled[1]:.2f} ms (EC2)")


def performance_half() -> None:
    print("\nprojected on the paper's EC2 virtual cluster (Fig. 6):")
    workload = TrajectoryWorkload(
        n_trajectories=256, t_end=48.0, quantum=1.0, sample_every=0.25,
        seed=3)
    cost = CostModel().with_(io_cost_per_sample=0.5e-6)
    base = None
    for n_vms in (1, 2, 4, 8):
        platform = ec2_virtual_cluster(n_vms=n_vms)
        result = simulate_distributed(
            workload, platform, workers_per_host=4, n_stat_workers=4,
            window_size=16, cost=cost)
        if base is None:
            base = result.makespan * 4  # per-core normalisation anchor
        cores = n_vms * 4
        print(f"  {cores:3d} virtual cores: modeled time "
              f"{result.makespan:7.3f} s, worker utilisation "
              f"{result.worker_utilisation:.2f}")


def main() -> None:
    functional_half()
    performance_half()


if __name__ == "__main__":
    main()
