"""The cluster pattern under the simulation half: distributed ==
shared-memory, traffic measured per link.  (These ids tested the virtual
cluster until it was retired; they now drive the real runtime.)"""

import pytest

from repro.models import neurospora_network
from repro.pipeline import WorkflowConfig, run_workflow


def config(**overrides):
    base = dict(n_simulations=6, t_end=6.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=3, n_stat_workers=1, window_size=5, seed=0)
    base.update(overrides)
    return WorkflowConfig(**base)


def links(counters, field):
    return [value for name, value in counters.items()
            if name.startswith("net.link.w") and name.endswith("." + field)]


@pytest.fixture(scope="module")
def counters():
    """The run-report counters of one traced three-worker run."""
    return run_workflow(neurospora_network(omega=20),
                        config(backend="cluster", trace=True)
                        ).trace_report.counters


class TestDistributedWorkflow:
    def test_results_identical_to_shared_memory(self, neurospora_small):
        """Process and serialisation boundaries must not change a single
        number: the distributed run reproduces the shared-memory run
        exactly."""
        local = run_workflow(neurospora_small, config())
        distributed = run_workflow(neurospora_small,
                                   config(backend="cluster"))
        assert distributed.windows == local.windows

    def test_traffic_is_measured(self, counters):
        # every task quantum crossed down and up, on every link
        down, up = links(counters, "messages_out"), links(counters,
                                                          "messages_in")
        assert len(down) == len(up) == 3
        assert min(down) > 0 and min(up) > 0
        assert sum(up) >= counters["net.results_received"]
        assert sum(links(counters, "bytes_out")) == counters["net.bytes_out"]
        assert sum(links(counters, "bytes_in")) == counters["net.bytes_in"]

    def test_tasks_have_host_affinity(self, counters):
        # a task's state goes to its worker once and stays there: one
        # state-carrying send per task, every later quantum by name
        assert counters["net.state_sends"] == counters["sim.tasks_generated"]
        assert counters["net.resident_sends"] \
            == counters["net.tasks_dispatched"] - counters["net.state_sends"]
        assert "net.reassignments" not in counters
        assert all(counters[f"net.worker.{w}.items"] > 0 for w in range(3))

    def test_single_host_cluster(self, neurospora_small):
        result = run_workflow(neurospora_small,
                              config(backend="cluster", n_sim_workers=1))
        assert result.n_windows >= 1
        assert result.windows == run_workflow(neurospora_small,
                                              config()).windows

    def test_needs_hosts(self):
        with pytest.raises(ValueError):
            config(backend="cluster", n_sim_workers=0)

    def test_lane_validation(self):
        with pytest.raises(ValueError):
            config(backend="cluster", cluster_inflight=0)

    def test_trace_records_wire_counters(self, counters):
        """``--trace`` on the cluster: scheduler totals, per-link wire
        traffic and the sim counters land in the run report."""
        assert counters["net.messages_out"] \
            == sum(links(counters, "messages_out"))
        assert counters["net.tasks_dispatched"] \
            == counters["net.results_received"] == counters["sim.quanta"]
        assert counters["sim.quanta"] > 0
        assert counters["sim.steps"] > 0
