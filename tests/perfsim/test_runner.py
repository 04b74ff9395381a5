"""The DES workflow models: structural invariants and qualitative
behaviour (the quantitative figure shapes live in benchmarks/)."""

import pytest

from repro.perfsim import (
    CostModel,
    TrajectoryWorkload,
    cluster,
    ec2_virtual_cluster,
    heterogeneous_96,
    intel32,
)
from repro.perfsim.platform import HostSpec
from repro.perfsim.runner import (
    simulate_distributed,
    simulate_workflow,
    speedup_curve,
)


def workload(n=32, **overrides):
    base = dict(n_trajectories=n, t_end=8.0, quantum=1.0,
                sample_every=0.5, seed=1)
    base.update(overrides)
    return TrajectoryWorkload(**base)


class TestSingleHost:
    def test_counts(self):
        wl = workload()
        result = simulate_workflow(wl, n_sim_workers=4, window_size=5)
        assert result.n_trajectories == 32
        assert result.n_quanta == 8
        assert result.n_cuts == wl.n_grid_points
        assert result.n_windows == 4  # ceil(17/5)
        assert len(result.worker_busy) == 4

    def test_makespan_positive_and_bounded(self):
        wl = workload()
        result = simulate_workflow(wl, n_sim_workers=4)
        lower = wl.total_steps() * CostModel().step_cost / 4
        assert result.makespan >= lower * 0.99
        assert result.makespan < lower * 10

    def test_more_workers_never_slower(self):
        wl = workload()
        times = [simulate_workflow(wl, n_sim_workers=w).makespan
                 for w in (1, 2, 4, 8)]
        for slow, fast in zip(times, times[1:]):
            assert fast <= slow * 1.01

    def test_deterministic(self):
        wl = workload()
        a = simulate_workflow(wl, n_sim_workers=4).makespan
        b = simulate_workflow(wl, n_sim_workers=4).makespan
        assert a == b

    def test_utilisation_in_range(self):
        result = simulate_workflow(workload(), n_sim_workers=4)
        assert 0.3 < result.worker_utilisation <= 1.0
        assert result.load_imbalance >= 1.0

    def test_stat_engine_bottleneck_direction(self):
        """With an artificially expensive analysis, adding stat engines
        must help; with cheap analysis it must not matter."""
        wl = workload(n=64)
        heavy = CostModel().with_(stat_cut_quad=5e-6)
        one = simulate_workflow(wl, cost=heavy, n_sim_workers=8,
                                n_stat_workers=1, window_size=2).makespan
        four = simulate_workflow(wl, cost=heavy, n_sim_workers=8,
                                 n_stat_workers=4, window_size=2).makespan
        assert four < one * 0.8
        light = CostModel()
        one_l = simulate_workflow(wl, cost=light, n_sim_workers=8,
                                  n_stat_workers=1, window_size=2).makespan
        four_l = simulate_workflow(wl, cost=light, n_sim_workers=8,
                                   n_stat_workers=4, window_size=2).makespan
        assert four_l == pytest.approx(one_l, rel=0.05)

    def test_fewer_cores_than_workers_rejected_nowhere(self):
        # services contend with workers on a tiny host: still completes
        tiny = HostSpec("tiny", cores=2)
        result = simulate_workflow(workload(n=8), n_sim_workers=2, host=tiny)
        assert result.makespan > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_workflow(workload(), n_sim_workers=0)


class TestSequentialBaseline:
    def test_speedup_curve_monotone(self):
        wl = workload(n=64)
        curve = speedup_curve(wl, [1, 2, 4, 8])
        assert curve[1] == pytest.approx(1.0)
        assert curve[2] > 1.5 and curve[4] > curve[2] and curve[8] > curve[4]


class TestDistributed:
    def test_counts_and_workers(self):
        wl = workload(n=24)
        plat = cluster(3, cores_per_host=4)
        result = simulate_distributed(wl, plat, workers_per_host=2)
        assert len(result.worker_busy) == 6
        assert result.n_cuts == wl.n_grid_points

    def test_more_hosts_faster(self):
        wl = workload(n=64)
        times = []
        for hosts in (1, 2, 4):
            plat = cluster(hosts, cores_per_host=4)
            times.append(simulate_distributed(
                wl, plat, workers_per_host=4).makespan)
        assert times[1] < times[0] and times[2] < times[1]

    def test_network_cost_hurts(self):
        """The same aggregate cores spread over a network are slower
        than on one shared-memory host."""
        wl = workload(n=64)
        one_host = simulate_distributed(
            wl, cluster(1, cores_per_host=8), workers_per_host=8).makespan
        four_hosts = simulate_distributed(
            wl, cluster(4, cores_per_host=2), workers_per_host=2).makespan
        assert four_hosts >= one_host * 0.99

    def test_dynamic_beats_static_on_heterogeneous(self):
        wl = workload(n=96, t_end=8.0)
        plat = heterogeneous_96()
        workers = [16, 8, 8] + [2] * 8
        dynamic = simulate_distributed(wl, plat, workers_per_host=workers,
                                       scheduling="dynamic").makespan
        static = simulate_distributed(wl, plat, workers_per_host=workers,
                                      scheduling="static").makespan
        assert dynamic < static

    def test_deterministic(self):
        wl = workload(n=24)
        plat = ec2_virtual_cluster(n_vms=2)
        a = simulate_distributed(wl, plat, workers_per_host=4).makespan
        b = simulate_distributed(wl, plat, workers_per_host=4).makespan
        assert a == b

    def test_validation(self):
        wl = workload()
        plat = cluster(2, cores_per_host=4)
        with pytest.raises(ValueError):
            simulate_distributed(wl, plat, workers_per_host=[2])
        with pytest.raises(ValueError):
            simulate_distributed(wl, plat, workers_per_host=8)  # > cores
        with pytest.raises(ValueError):
            simulate_distributed(wl, plat, workers_per_host=2,
                                 scheduling="magic")


class TestPlatforms:
    def test_presets_shape(self):
        assert intel32().total_cores == 32
        assert cluster(4).n_hosts == 4
        assert ec2_virtual_cluster().total_cores == 32
        hetero = heterogeneous_96()
        assert hetero.total_cores == 96
        assert hetero.hosts[0].name == "nehalem"

    def test_channel_to_master_override(self):
        hetero = heterogeneous_96()
        assert hetero.channel_to_master(1).name == "gbe"
        assert hetero.channel_to_master(5).name == "wan"

    def test_transfer_time(self):
        from repro.perfsim.platform import INFINIBAND_IPOIB
        cost = INFINIBAND_IPOIB.transfer_time(9000)
        assert cost == pytest.approx(18e-6 + 9000 / 900e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster(0)
        with pytest.raises(ValueError):
            HostSpec("h", cores=0)


class TestCostModel:
    def test_with_override(self):
        base = CostModel()
        tuned = base.with_(step_cost=9.0)
        assert tuned.step_cost == 9.0
        assert tuned.dispatch_cost == base.dispatch_cost
        assert base.step_cost != 9.0

    def test_stat_cost_growth_is_superlinear(self):
        cost = CostModel()
        ratio = cost.stat_cost_per_cut(1024) / cost.stat_cost_per_cut(512)
        assert ratio > 2.5  # strictly worse than linear doubling
