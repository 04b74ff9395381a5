"""The TCP master/worker cluster runtime (repro.distributed.net)."""

import copy
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.distributed.net import (
    ClusterError,
    ClusterMaster,
    Hello,
    KillWorkerAfter,
    run_workflow_cluster,
)
from repro.distributed.worker import worker_main
from repro.pipeline import SteeringController, WorkflowConfig, run_workflow
from repro.sim.task import make_tasks
from tests.distributed.pools import drive


def config(**overrides):
    base = dict(n_simulations=6, t_end=6.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=2, window_size=5, seed=0, keep_cuts=True)
    base.update(overrides)
    return WorkflowConfig(**base)


def stats_of(result):
    return [(s.grid_index, s.mean, s.variance)
            for s in result.cut_statistics()]


class TestClusterWorkflow:
    def test_results_identical_to_threads(self, neurospora_small):
        """The whole point: sockets, processes and scheduling change
        nothing -- same seeds, bit-identical statistics."""
        threaded = run_workflow(neurospora_small, config())
        clustered = run_workflow(neurospora_small,
                                 config(backend="cluster"))
        assert stats_of(threaded) == stats_of(clustered)

    def test_method_reaches_the_workers(self):
        """``method`` used to be dropped on the way to ``make_tasks``:
        ``--backend cluster --method tau`` silently ran exact SSA."""
        from repro.models import neurospora_network
        network = neurospora_network(omega=400)

        def run(backend, method):
            return run_workflow(network, config(
                backend=backend, method=method, engine="batch",
                batch_size=3, t_end=4.0))
        clustered = run("cluster", "tau")
        assert clustered.windows == run("threads", "tau").windows
        assert stats_of(clustered) != stats_of(run("cluster", "exact"))
        assert run("processes", "hybrid").windows \
            == run("threads", "hybrid").windows

    def test_workers_flag_controls_pool(self, neurospora_small):
        chaos = _Recorder()
        run_workflow_cluster(neurospora_small,
                             config(backend="cluster", n_sim_workers=3),
                             fault_hook=chaos)
        assert len(chaos.master.workers) == 3

    def test_trajectories_reassemble(self, neurospora_small):
        threaded = run_workflow(neurospora_small, config())
        clustered = run_workflow(neurospora_small, config(backend="cluster"))
        reference = threaded.trajectories()
        trajectories = clustered.trajectories()
        assert len(trajectories) == len(reference) == 6
        for ref, got in zip(reference, trajectories):
            assert got.times == ref.times
            assert got.samples == ref.samples

    def test_trace_counters_cover_links_and_workers(self, neurospora_small):
        result = run_workflow(neurospora_small,
                              config(backend="cluster", trace=True))
        counters = result.trace_report.counters
        assert counters["net.tasks_dispatched"] >= 6
        assert counters["net.results_received"] >= 6
        assert counters["net.bytes_out"] > 0
        assert counters["net.bytes_in"] > 0
        assert counters["net.link.w0.messages_out"] > 0
        assert (counters.get("net.worker.0.items", 0)
                + counters.get("net.worker.1.items", 0)
                == counters["net.results_received"])

    def test_steering_stops_early(self, neurospora_small):
        controller = SteeringController()
        controller._on_progress = controller.stop_after(1)
        cfg = config(backend="cluster", n_simulations=4, t_end=50.0,
                     window_size=4)
        result = run_workflow(neurospora_small, cfg, controller=controller)
        # drained early: far fewer cuts than a full 50h run would produce
        assert result.n_windows < 101 // 4


class TestFaultTolerance:
    def test_killed_worker_replays_identically(self, neurospora_small):
        """Acceptance: SIGKILL one of two workers mid-run; its in-flight
        tasks replay on the survivor from their last acknowledged state,
        and every statistic matches the single-process run bit-for-bit."""
        cfg = config(quantum=1.0)
        baseline = run_workflow(neurospora_small, cfg)
        chaos = KillWorkerAfter(n_results=3, worker_id=0)
        clustered = run_workflow_cluster(
            neurospora_small, config(backend="cluster", quantum=1.0),
            fault_hook=chaos)
        assert chaos.fired
        assert chaos.master.workers_failed == 1
        assert chaos.master.reassignments >= 1
        assert stats_of(baseline) == stats_of(clustered)

    def test_all_workers_dead_raises(self, neurospora_small):
        tasks = make_tasks(neurospora_small, 2, 6.0, 2.0, 0.5, seed=0)

        def kill_everything(master):
            for worker_id in list(master.workers):
                master.kill_worker(worker_id)

        master = ClusterMaster(n_workers=2, fault_hook=kill_everything)
        master.start()
        try:
            with pytest.raises(ClusterError, match="all workers dead"):
                drive(master, tasks)
        finally:
            master.close()

    def test_heartbeat_timeout_detects_silent_worker(self, neurospora_small):
        """A worker that connects, registers and then goes mute (no
        heartbeats, no results) is declared dead; its tasks complete on
        the live worker."""
        tasks = make_tasks(neurospora_small, 4, 4.0, 2.0, 0.5, seed=0)
        master = ClusterMaster(n_workers=2, spawn_local=False,
                               heartbeat_interval=0.05,
                               heartbeat_timeout=0.5,
                               accept_timeout=10.0)
        results = []

        def run():
            master.start()
            try:
                results.extend(drive(master, tasks))
            finally:
                master.close()

        driver = threading.Thread(target=run)
        driver.start()
        for _ in range(100):  # wait for the master to bind its port
            if master.port:
                break
            time.sleep(0.05)
        # worker 0: a real in-thread worker; worker 1: mute after Hello
        live = threading.Thread(
            target=worker_main, args=("127.0.0.1", master.port, 0),
            kwargs={"heartbeat_interval": 0.05}, daemon=True)
        live.start()
        mute = socket.create_connection(("127.0.0.1", master.port))
        from repro.distributed.message import encode_frame
        mute.sendall(encode_frame(Hello(worker_id=1, pid=0)))

        driver.join(timeout=60.0)
        mute.close()
        assert not driver.is_alive()
        assert master.workers_failed == 1
        assert not master.workers[1].alive
        assert master.reassignments >= 1
        # the results stream is complete despite the dead worker
        done = [r for r in results if r.done]
        assert len(done) == 4


class TestSchedulingPolicies:
    def test_host_affinity_pins_tasks(self, neurospora_small):
        """Without failures, a task never changes worker after its first
        dispatch (its warm state lives there in a real deployment)."""
        recorder = _Recorder(track_affinity=True)
        run_workflow_cluster(neurospora_small,
                             config(backend="cluster", quantum=1.0),
                             fault_hook=recorder)
        assert recorder.master.reassignments == 0
        assert recorder.pin_changes == 0
        assert len(recorder.first_pin) == 6  # every task got pinned once

    def test_inflight_window_bounds_outstanding_tasks(self, neurospora_small):
        recorder = _Recorder()
        run_workflow_cluster(
            neurospora_small,
            config(backend="cluster", quantum=1.0, cluster_inflight=1),
            fault_hook=recorder)
        assert recorder.max_in_flight <= 1

    def test_concurrent_submitters_keep_the_books(self, enzyme_small):
        """Submitting threads (more of them than cores) and the reader
        threads share the master's book-keeping: under a short switch
        interval no count is lost, no window overflows, and every task's
        samples equal a local run's."""
        tasks = make_tasks(enzyme_small, 16, 3.0, 0.5, 0.5, seed=4)
        oracle = {}
        for task in copy.deepcopy(tasks):
            samples = []
            while not task.done:
                samples.extend(task.run_quantum().samples)
            oracle[task.task_id] = samples
        recorder = _Recorder()
        master = ClusterMaster(n_workers=2, fault_hook=recorder)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            master.start()
            with ThreadPoolExecutor(max_workers=8) as submitters:
                runs = list(submitters.map(
                    lambda share: drive(master, share),
                    [tasks[i::8] for i in range(8)]))
        finally:
            sys.setswitchinterval(interval)
            master.close()
        got = {}
        for result in (r for run in runs for r in run):
            got.setdefault(result.task_id, []).extend(result.samples)
        assert got == oracle
        quanta = sum(len(run) for run in runs)
        assert master.tasks_dispatched == master.results_received == quanta
        assert master.state_sends == len(tasks)
        assert master.state_sends + master.resident_sends == quanta
        assert sum(h.items_done for h in master.workers.values()) == quanta
        assert recorder.max_in_flight <= master.inflight_window
        assert not any(h.in_flight for h in master.workers.values())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="worker"):
            ClusterMaster(n_workers=0)
        with pytest.raises(ValueError, match="inflight"):
            ClusterMaster(n_workers=1, inflight_window=0)
        with pytest.raises(ValueError, match="backend"):
            config(backend="carrier-pigeon")
        with pytest.raises(ValueError, match="worker"):
            config(backend="cluster", n_sim_workers=0)


class TestRemoteJoinCLI:
    def test_worker_joins_via_cli(self, neurospora_small, tmp_path):
        """The documented remote-host path: spawn nothing locally, let a
        ``python -m repro.distributed.worker`` subprocess join over TCP."""
        import os

        tasks = make_tasks(neurospora_small, 2, 4.0, 2.0, 0.5, seed=0)
        master = ClusterMaster(n_workers=1, spawn_local=False,
                               accept_timeout=60.0)
        results = []
        failure = []

        def run():
            try:
                master.start()
                results.extend(drive(master, tasks))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failure.append(exc)
            finally:
                master.close()

        driver = threading.Thread(target=run)
        driver.start()
        for _ in range(200):
            if master.port:
                break
            time.sleep(0.05)
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.distributed.worker",
             "--connect", f"127.0.0.1:{master.port}", "--id", "0"],
            capture_output=True, text=True, timeout=120, env=env)
        driver.join(timeout=10.0)
        assert not failure, failure
        assert proc.returncode == 0, proc.stderr
        assert "quanta executed" in proc.stdout
        assert master.results_received == len(results) == 4
        assert len([r for r in results if r.done]) == 2


class _Recorder:
    """Fault-hook that only observes: per-result scheduler invariants."""

    def __init__(self, track_affinity=False):
        self.master = None
        self.max_in_flight = 0
        self.first_pin = {}
        self.pin_changes = 0
        self.track_affinity = track_affinity

    def __call__(self, master):
        self.master = master
        self.max_in_flight = max(
            [self.max_in_flight]
            + [len(h.in_flight) for h in master.workers.values()])
        if self.track_affinity:
            for key, worker_id in master.assignment.items():
                previous = self.first_pin.setdefault(key, worker_id)
                if previous != worker_id:
                    self.pin_changes += 1
