"""Figure 4: speedup of the distributed simulator on the Intel cluster.

Paper setup: Infiniband (IPoIB) cluster of 2x six-core Xeon hosts, 4
statistical engines, two usages: 2 and 4 simulation engines per host.
Two panels: speedup w.r.t. the number of hosts (top) and w.r.t. the
aggregated number of cores (bottom).

Paper findings reproduced as shape assertions:

* speedup grows steadily with hosts for both configurations;
* "speedup is also influenced by the number of simulation engines per
  host since the kind of latency and bandwidth involved in data streaming
  depend on the kind of channel (shared-memory or network)": per-host
  efficiency with 2 engines/host is a bit higher than with 4 (network
  channel amortised over less compute), while at equal *aggregated cores*
  the 4-per-host configuration needs fewer network hops and wins.

Setting ``REPRO_REAL_CLUSTER=1`` additionally runs the scaling series on
the *real* TCP master/worker runtime (``repro.distributed.net``, one
localhost worker process per modeled host) instead of only the DES
model -- slower, so off by default and in CI.
"""

import os
import time

import pytest

from benchmarks.conftest import neurospora_workload, print_series
from repro.perfsim.platform import cluster
from repro.perfsim.runner import simulate_distributed

HOSTS = (1, 2, 4, 6, 8)


def _figure4():
    workload = neurospora_workload(256)
    times = {}
    for cores_per_host in (2, 4):
        for n_hosts in HOSTS:
            platform = cluster(n_hosts, cores_per_host=12)
            result = simulate_distributed(
                workload, platform, workers_per_host=cores_per_host,
                n_stat_workers=4, window_size=16)
            times[(cores_per_host, n_hosts)] = result.makespan
    return times


def test_fig4_cluster_speedup(benchmark):
    times = benchmark.pedantic(_figure4, rounds=1, iterations=1)

    speedup_vs_hosts = {
        c: {h: times[(c, 1)] / times[(c, h)] for h in HOSTS}
        for c in (2, 4)
    }
    rows = [(h, speedup_vs_hosts[2][h], speedup_vs_hosts[4][h])
            for h in HOSTS]
    print_series("Fig. 4 (top): speedup vs. n. of hosts",
                 rows, ("hosts", "2 cores/host", "4 cores/host"))

    # bottom panel: against aggregated cores, relative to 1 host x 2 cores
    base = times[(2, 1)] * 2  # per-core-normalised baseline
    agg_rows = []
    for c in (2, 4):
        for h in HOSTS:
            agg_rows.append((c * h, c, base / (times[(c, h)] * 1)))
    print_series("Fig. 4 (bottom): speedup vs. aggregated cores",
                 sorted(agg_rows), ("cores", "cores/host", "speedup"))
    benchmark.extra_info["speedup_vs_hosts"] = {
        str(c): {str(h): s for h, s in curve.items()}
        for c, curve in speedup_vs_hosts.items()}

    for c in (2, 4):
        curve = speedup_vs_hosts[c]
        # monotone growth with hosts, reasonable efficiency at 8 hosts
        values = [curve[h] for h in HOSTS]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert curve[8] > 0.75 * 8
    # per-host efficiency: 2 engines/host scales slightly better
    assert speedup_vs_hosts[2][8] >= speedup_vs_hosts[4][8] * 0.98
    # at equal aggregated cores, fewer hosts (4/host) is at least as good:
    # 8 cores as 2 hosts x 4 >= 4 hosts x 2
    assert times[(4, 2)] <= times[(2, 4)] * 1.05


@pytest.mark.skipif(not os.environ.get("REPRO_REAL_CLUSTER"),
                    reason="set REPRO_REAL_CLUSTER=1 to run the scaling "
                           "series on the real TCP runtime")
def test_fig4_real_cluster_runtime(benchmark):
    """The same scaling question against the real socket runtime: one
    localhost worker process per modeled host.  Wall-clock, so only the
    coarse shape is asserted (more workers never slower than half the
    single-worker run at 4 workers)."""
    from repro.models import neurospora_network
    from repro.pipeline import WorkflowConfig, run_workflow

    network = neurospora_network(omega=100)
    workers_axis = (1, 2, 4)

    def _series():
        times = {}
        for n_workers in workers_axis:
            config = WorkflowConfig(
                n_simulations=32, t_end=24.0, sample_every=0.5,
                quantum=4.0, n_sim_workers=n_workers, n_stat_workers=2,
                window_size=16, seed=0, backend="cluster")
            started = time.perf_counter()
            run_workflow(network, config)
            times[n_workers] = time.perf_counter() - started
        return times

    times = benchmark.pedantic(_series, rounds=1, iterations=1)
    speedup = {w: times[1] / times[w] for w in workers_axis}
    print_series("Fig. 4 (real TCP runtime): speedup vs. workers",
                 [(w, speedup[w]) for w in workers_axis],
                 ("workers", "speedup"))
    benchmark.extra_info["real_cluster_speedup"] = {
        str(w): s for w, s in speedup.items()}
    # real processes must beat half-ideal -- but ideal is bounded by the
    # cores this machine actually has (on a 1-core box all we can ask is
    # that the socket runtime doesn't slow the run down much)
    cores = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    assert speedup[4] > max(0.5 * min(4, cores), 0.7)
