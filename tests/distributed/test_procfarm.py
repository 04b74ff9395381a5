"""``backend="processes"``: the localhost cluster runtime under its
other name (``threads`` is the byte reference)."""

from repro.distributed import net
from repro.pipeline import WorkflowConfig, run_workflow


def run(model, **overrides):
    base = dict(n_simulations=4, t_end=5.0, sample_every=0.5, quantum=2.5,
                n_sim_workers=2, window_size=5, seed=0, keep_cuts=True)
    return run_workflow(model, WorkflowConfig(**{**base, **overrides}))


class TestProcessFarm:
    def test_results_identical_to_thread_farm(self, neurospora_small):
        """Crossing process boundaries must not change results."""
        assert run(neurospora_small, backend="processes").windows \
            == run(neurospora_small).windows

    def test_trajectories_reassemble(self, neurospora_small):
        result = run(neurospora_small, backend="processes")
        trajectories = result.trajectories()
        assert len(trajectories) == 4
        assert all(len(t) == 11 for t in trajectories)

    def test_cwc_model_crosses_processes(self, neurospora_cwc_small):
        cfg = dict(n_simulations=2, t_end=2.0, engine="cwc")
        result = run(neurospora_cwc_small, backend="processes", **cfg)
        assert result.n_windows >= 1
        assert result.windows == run(neurospora_cwc_small, **cfg).windows


class TestBackendDispatch:
    def test_reachable_as_processes_backend(self, neurospora_small,
                                            monkeypatch):
        """``processes`` and ``cluster`` are one code path: both build a
        :class:`ClusterMaster` and report its ``net.*`` counters."""
        built = []
        init = net.ClusterMaster.__init__
        monkeypatch.setattr(
            net.ClusterMaster, "__init__",
            lambda self, *args, **kw: built.append(kw["n_workers"])
            or init(self, *args, **kw))
        threaded = run(neurospora_small, trace=True)
        assert not built
        assert not any(name.startswith("net.")
                       for name in threaded.trace_report.counters)
        for backend in ("processes", "cluster"):
            result = run(neurospora_small, backend=backend, trace=True)
            assert result.windows == threaded.windows
            assert result.trace_report.counters["net.results_received"] \
                == result.trace_report.counters["sim.quanta"]
        assert built == [2, 2]

    def test_trace_covers_process_backend(self, enzyme_small):
        """``--trace`` reads one vocabulary on every backend: ``sim.*``
        comes from the farm's emitter and engines, as on ``threads``,
        and the master adds only ``net.*`` -- nothing is counted twice.
        A scalar run's quanta are far below ``SHM_MIN_BYTES``: none goes
        through shm."""
        report = run(enzyme_small, backend="processes",
                     trace=True).trace_report
        counters = report.counters
        engines = [node for node in report.to_dict()["nodes"]
                   if node["name"].startswith("sim-farm.w")]
        assert len(engines) == 2 * 2  # workers x in-flight window
        # 4 tasks x 2 quanta, each run once on a worker
        assert counters["sim.quanta"] == counters["net.results_received"] \
            == counters["net.tasks_dispatched"] == 8
        assert counters["sim.quanta_dispatched"] == 8
        assert counters["sim.trajectories_retired"] == 4
        assert counters["sim.tasks_completed"] == 4
        assert counters["sim.steps"] > 0
        # without a death, state crosses once per task
        assert counters["net.state_sends"] == counters["sim.tasks_generated"]
        assert counters["net.resident_sends"] == 4
        assert not any(name.startswith("sim.")
                       for name in net.ClusterMaster(n_workers=1).counters())
        assert "net.shm_blocks" not in counters
