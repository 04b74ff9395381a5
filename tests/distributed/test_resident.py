"""Worker-resident tasks, master-held checkpoints (ISSUE 20).

The worker keeps the live task it advances; the master hands callers an
opaque :class:`Checkpoint` per quantum and never unpickles one.  What
must hold: state crosses master->worker once per task (and once more per
re-pin after a worker death), replay from a checkpoint is bit-identical,
the worker's ``resident`` map cannot grow across runs or tenants, and a
protocol mismatch or a lost resident task ends in a ``ClusterError``.
"""

from __future__ import annotations

import functools
import os
import pickle
import socket
import threading
import time
import types

import pytest

from repro.distributed import net
from repro.distributed.message import (StreamDecoder, encode_frame,
                                       encode_frame_oob)
from repro.distributed.net import (PROTOCOL, Checkpoint, ClusterError,
                                   ClusterMaster, Hello, KillWorkerAfter,
                                   ResultMsg, TaskMsg, WorkerFailure,
                                   run_workflow_cluster)
from repro.distributed.shm import SEGMENT_PREFIX, leaked_segments
from repro.distributed.worker import worker_main
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.engine import run_quantum
from repro.sim.task import make_tasks
from tests.distributed.pools import drive
from tests.sim.samples import scalar_samples

N_TASKS, N_QUANTA = 6, 4


def scalar_tasks(model, n=N_TASKS, t_end=float(N_QUANTA), seed=0):
    return make_tasks(model, n, t_end, 1.0, 0.5, seed=seed)


def config(**overrides):
    base = dict(n_simulations=8, t_end=6.0, sample_every=0.5, quantum=1.0,
                n_sim_workers=2, window_size=4, seed=2)
    base.update(overrides)
    return WorkflowConfig(**base)


class _Peer:
    """The master's end of one hand-driven worker connection."""

    def __init__(self, **worker_kwargs):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.error: list = []
        self.thread = threading.Thread(
            target=self._work, args=(self.listener.getsockname()[1],),
            kwargs=worker_kwargs, daemon=True)
        self.thread.start()
        self.sock, _addr = self.listener.accept()
        self.sock.settimeout(30.0)
        self.decoder = StreamDecoder()
        self.inbox: list = []

    def _work(self, port, **kwargs):
        try:
            worker_main("127.0.0.1", port, 0, heartbeat_interval=30.0,
                        **kwargs)
        except Exception as exc:  # noqa: BLE001 - what the test asks about
            self.error.append(exc)

    def send(self, obj) -> None:
        self.sock.sendall(encode_frame_oob(obj))

    def recv(self):
        while not self.inbox:
            self.inbox.extend(self.decoder.feed(self.sock.recv(1 << 16)))
        return self.inbox.pop(0)

    def close(self) -> None:
        self.sock.close()
        self.listener.close()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


class TestStateCrossesOnce:
    def test_one_worker_counts(self, enzyme_small, monkeypatch):
        """(a) N scalar tasks x Q quanta on one worker: N dispatches
        carry state, the other N(Q-1) name a resident task in a frame
        of ~100 B -- and the master never unpickles a task state."""
        loads = []
        monkeypatch.setattr(net, "pickle", types.SimpleNamespace(
            dumps=pickle.dumps, PickleBuffer=pickle.PickleBuffer,
            loads=lambda *a, **k: loads.append(a) or pickle.loads(*a, **k)))
        tasks = scalar_tasks(enzyme_small)
        first_sends = sum(
            len(encode_frame_oob(TaskMsg(Checkpoint.of(t), keep=True)))
            for t in tasks)
        master = ClusterMaster(n_workers=1)
        master.start()
        try:
            done = [r for r in drive(master, tasks) if r.done]
        finally:
            master.close()
        assert len(done) == N_TASKS
        counters = master.counters()
        later = N_TASKS * (N_QUANTA - 1)
        assert counters["net.tasks_dispatched"] == N_TASKS * N_QUANTA
        assert counters["net.state_sends"] == N_TASKS
        assert counters["net.resident_sends"] == later
        assert counters["net.bytes_out"] < first_sends + 200 * later
        # one checkpoint comes back per quantum, each about a first send
        assert counters["net.state_bytes_in"] > first_sends * (N_QUANTA - 1)
        assert loads == []

    def test_trace_report_carries_the_counters(self, tmp_path):
        import json

        from repro.pipeline.main import main
        path = tmp_path / "report.json"
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4", "--quiet",
                     "--backend", "cluster", "--workers", "2",
                     "--trace-report", str(path)])
        assert code == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["net.state_sends"] == 4
        assert counters["net.resident_sends"] == 16
        assert counters["net.state_bytes_in"] > 0

    def test_service_tenant_never_unpickles_on_the_master(self,
                                                          monkeypatch):
        """A tenant run on a ``processes`` fleet is resident too: its
        engines get checkpoints back and hand them on, so the master
        unpickles no task state and steady-state quanta name their
        task."""
        from repro.service.fleet import SharedFleet
        from repro.service.protocol import RunSpec
        from repro.service.run_manager import RunManager, RunState

        loads = []
        monkeypatch.setattr(net, "pickle", types.SimpleNamespace(
            dumps=pickle.dumps, PickleBuffer=pickle.PickleBuffer,
            loads=lambda *a, **k: loads.append(a) or pickle.loads(*a, **k)))
        spec = RunSpec.from_jsonable({"model": "enzyme", "config": dict(
            n_simulations=4, t_end=3.0, quantum=0.5, sample_every=0.5,
            window_size=2)})
        fleet = SharedFleet(2, backend="processes").start()
        manager = RunManager(fleet)
        try:
            tenant = manager.submit(spec)
            assert tenant.wait(timeout=120)
            assert tenant.state == RunState.DONE, tenant.error
            counters = fleet._master.counters()
        finally:
            manager.close()
            fleet.close()
        assert loads == []
        assert counters["net.state_sends"] == 4
        assert counters["net.resident_sends"] > 0
        solo = run_workflow(spec.build_model(), spec.config)
        assert tenant.windows == solo.windows


class TestReplayFromCheckpoint:
    @pytest.mark.parametrize("overrides", [
        {},
        {"engine": "batch", "batch_size": 2, "n_simulations": 12},
        {"engine": "batch", "batch_size": 16, "n_simulations": 64,
         "sample_every": 0.125},
    ], ids=["scalar", "batch-task", "shm-quanta"])
    def test_survivor_gets_full_checkpoints(self, neurospora_small,
                                            overrides):
        """(b) SIGKILL one of two workers: every task re-pinned to the
        survivor is sent there as a full checkpoint exactly once, the
        windows equal the threads backend's, and no segment is left (the
        last case: fused quanta above ``SHM_MIN_BYTES``)."""
        threaded = run_workflow(neurospora_small, config(**overrides))
        chaos = KillWorkerAfter(n_results=3, worker_id=0)
        clustered = run_workflow_cluster(
            neurospora_small,
            config(backend="processes", trace=True, **overrides),
            fault_hook=chaos)
        master = chaos.master
        n_tasks = clustered.trace_report.counters["sim.tasks_generated"]
        assert chaos.fired and master.workers_failed == 1
        assert master.reassignments >= 1
        assert master.state_sends == n_tasks + master.reassignments
        assert (master.state_sends + master.resident_sends
                == master.tasks_dispatched)
        assert clustered.windows == threaded.windows
        assert master.shm_blocks or "sample_every" not in overrides
        assert leaked_segments(f"{SEGMENT_PREFIX}-{os.getpid()}") == []


class TestWorkerMemory:
    def test_stop_then_second_run_leaves_nothing_resident(self,
                                                          neurospora_small):
        """(d) a steered stop retires a tenant's tasks mid-horizon: the
        worker still holds them when the run ends, forgets them when the
        pool forgets the tenant, and holds nothing once the next tenant
        has run to completion."""
        resident: dict = {}
        master = ClusterMaster(n_workers=1, spawn_local=False)
        starter = threading.Thread(target=master.start)
        starter.start()
        while not master.port:
            time.sleep(0.01)
        worker = threading.Thread(
            target=worker_main, args=("127.0.0.1", master.port, 0),
            kwargs={"resident": resident}, daemon=True)
        worker.start()
        starter.join(timeout=30.0)
        try:
            retired = drive(master, scalar_tasks(neurospora_small,
                                                 t_end=20.0),
                            namespace="a", stop=lambda seen: len(seen) >= 3)
            assert not all(r.done for r in retired)
            assert resident, "retired tasks stay until forgotten"
            assert {key[0] for key in resident} == {"a"}
            master.forget("a")
            second = scalar_tasks(neurospora_small, n=3, seed=50)
            done = [r for r in drive(master, second, namespace="b")
                    if r.done]
            assert len(done) == 3
        finally:
            master.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert resident == {}

    def test_cancelled_tenant_is_forgotten(self, monkeypatch):
        """A tenant cancelled mid-run leaves retired tasks resident on a
        long-lived fleet; releasing it drops them from the worker, and
        the next tenant is bit-identical to a solo run."""
        from repro.distributed.net import in_namespace
        from repro.service.fleet import SharedFleet
        from repro.service.protocol import RunSpec
        from repro.service.run_manager import RunManager, RunState

        resident: dict = {}
        held_at_forget = []
        forget = net.ClusterMaster.forget

        def spy(master, namespace):
            held_at_forget.append(
                [key for key in resident if in_namespace(key, namespace)])
            forget(master, namespace)

        monkeypatch.setattr(net.ClusterMaster, "forget", spy)
        monkeypatch.setattr(net, "ClusterMaster", functools.partial(
            net.ClusterMaster, spawn_local=False))
        fleet = SharedFleet(1, backend="processes")
        starter = threading.Thread(target=fleet.start)
        starter.start()
        while fleet._master is None or not fleet._master.port:
            time.sleep(0.01)
        worker = threading.Thread(
            target=worker_main, args=("127.0.0.1", fleet._master.port, 0),
            kwargs={"resident": resident}, daemon=True)
        worker.start()
        starter.join(timeout=30.0)
        assert not starter.is_alive()
        manager = RunManager(fleet)
        try:
            cancelled = manager.submit(RunSpec.from_jsonable({
                "model": "enzyme", "config": dict(
                    n_simulations=4, t_end=500.0, quantum=0.5,
                    sample_every=0.5, window_size=2)}))
            deadline = time.monotonic() + 60.0
            while not any(e["type"] == "window"
                          for e in cancelled.events()):
                assert time.monotonic() < deadline, "no window streamed"
                time.sleep(0.01)
            manager.cancel(cancelled.run_id)
            assert cancelled.wait(timeout=60)
            assert cancelled.state == RunState.CANCELLED
            assert cancelled.tracer.report().counters["sim.tasks_retired"]
            spec = RunSpec.from_jsonable({"model": "enzyme", "config": dict(
                n_simulations=3, t_end=2.0, quantum=0.5, sample_every=0.5,
                window_size=2, seed=9)})
            second = manager.submit(spec)
            assert second.wait(timeout=60)
            assert second.state == RunState.DONE, second.error
        finally:
            manager.close()
            fleet.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert held_at_forget[0], "the cancelled run left nothing resident"
        assert not any(in_namespace(key, cancelled.run_id)
                       for key in resident)
        assert resident == {}
        solo = run_workflow(spec.build_model(), spec.config)
        assert second.windows == solo.windows

    def test_worker_keeps_a_task_only_when_asked(self, enzyme_small):
        """Serve-mode traffic (``keep`` unset) and finished tasks leave
        nothing behind; arriving state replaces what was resident."""
        resident: dict = {}
        peer = _Peer(resident=resident)
        try:
            assert isinstance(peer.recv(), Hello)
            task, other = scalar_tasks(enzyme_small, n=2, t_end=2.0)
            peer.send(TaskMsg(Checkpoint.of(task, ("tenant", 0))))
            assert peer.recv().task.key == ("tenant", 0)
            assert resident == {}
            peer.send(TaskMsg(Checkpoint.of(task), keep=True))
            first = peer.recv().task
            assert list(resident) == [task.task_id] and not first.done
            # a checkpoint for a held key supersedes the held task
            peer.send(TaskMsg(Checkpoint.of(other, task.task_id), keep=True))
            assert peer.recv().task.time == first.time
            assert resident[task.task_id].task_id == other.task_id
            peer.send(TaskMsg(None, task.task_id))
            last = peer.recv().task
            assert last.done and resident == {}
        finally:
            peer.close()
        assert peer.error == []

    def test_live_task_messages_still_run(self, enzyme_small):
        """``TaskMsg(task)`` with a live task (what the benchmark's
        hand-driven reference builds) runs like a checkpoint, and the
        checkpoint that comes back equals a local quantum's."""
        (task,) = scalar_tasks(enzyme_small, n=1)
        peer = _Peer()
        try:
            peer.recv()
            peer.send(TaskMsg(task))
            reply = peer.recv()
        finally:
            peer.close()
        local = task.run_quantum()
        # no shm prefix, as for any remote worker: results ride in band
        assert isinstance(reply, ResultMsg) and type(reply.results) is tuple
        assert reply.task.key == task.task_id
        assert bytes(reply.task.state) == pickle.dumps(task, 5)
        assert scalar_samples(reply.results[0]) == scalar_samples(local)
        # ... and ResultMsg(worker_id, live task, results) still frames
        (back,) = StreamDecoder().feed(
            encode_frame_oob(ResultMsg(0, task, (local,))))
        assert pickle.dumps(back.task, 5) == pickle.dumps(task, 5)


class TestLostResidentTask:
    def test_worker_names_the_key(self):
        peer = _Peer()
        try:
            peer.recv()
            peer.send(TaskMsg(None, ("ghost", 7)))
            failure = peer.recv()
        finally:
            peer.close()
        assert isinstance(failure, WorkerFailure)
        assert "('ghost', 7)" in failure.error
        assert isinstance(peer.error[0], LookupError)

    def test_master_raises_instead_of_hanging(self, enzyme_small):
        """Two workers, so that the master noticing worker 0's exit
        before it reads the failure frame is a replay on worker 1, not
        "all workers dead": either way the failure is read next."""
        asked = []

        def ask_for_a_ghost(master):
            if not asked:
                asked.append(master._send(master.workers[0],
                                          TaskMsg(None, "ghost")))

        master = ClusterMaster(n_workers=2, fault_hook=ask_for_a_ghost)
        master.start()
        try:
            with pytest.raises(ClusterError,
                               match="no resident task.*ghost"):
                drive(master, scalar_tasks(enzyme_small))
        finally:
            master.close()
        assert asked == [True]


class TestProtocolNumber:
    def test_hello_states_it(self):
        peer = _Peer()
        try:
            assert peer.recv().protocol == PROTOCOL
        finally:
            peer.close()

    def test_old_checkout_is_refused_at_the_handshake(self):
        """A worker from a checkout that predates the protocol number
        pickles a ``Hello`` without one."""
        old_hello = Hello(worker_id=0, pid=1)
        object.__delattr__(old_hello, "protocol")
        assert "protocol" not in pickle.loads(pickle.dumps(old_hello)).__dict__
        self._assert_refused(old_hello, 1)

    def test_one_quantum_per_dispatch_worker_is_refused(self):
        """Protocol 3 ran one quantum per dispatch and sent checkpoints
        without a quanta count: a master that reads one off every
        checkpoint cannot serve it."""
        assert PROTOCOL == 4
        self._assert_refused(Hello(worker_id=0, pid=1, protocol=3), 3)

    @staticmethod
    def _assert_refused(old_hello: Hello, protocol: int) -> None:
        master = ClusterMaster(n_workers=1, spawn_local=False,
                               accept_timeout=30.0)
        failure = []

        def start():
            try:
                master.start()
            except ClusterError as exc:
                failure.append(str(exc))

        starter = threading.Thread(target=start)
        starter.start()
        while not master.port:
            time.sleep(0.01)
        with socket.create_connection(("127.0.0.1", master.port)) as sock:
            sock.sendall(encode_frame(old_hello))
            starter.join(timeout=30.0)
        assert not starter.is_alive()
        assert len(failure) == 1
        assert f"protocol {protocol}," in failure[0]
        assert f"speaks {PROTOCOL}" in failure[0]
        assert not master.workers


class TestServeModeContract:
    def test_execute_returns_the_live_advanced_task(self, enzyme_small):
        """(e) the pool contract: the future resolves to the advanced
        task's checkpoint -- its state equal, pickle for pickle, to a
        local ``run_quantum()``'s -- which, handed back, runs the next
        quantum on the worker's resident copy."""
        (task,) = scalar_tasks(enzyme_small, n=1)
        (local,) = scalar_tasks(enzyme_small, n=1)
        master = ClusterMaster(n_workers=1)
        master.start()
        try:
            for _ in range(2):
                task, result = master.submit(
                    run_quantum, task, namespace="tenant").result(timeout=60)
                expected = local.run_quantum()
                assert isinstance(task, Checkpoint)
                assert task.key == ("tenant", local.task_id)
                assert bytes(task.state) == pickle.dumps(local, 5)
                assert scalar_samples(result) == scalar_samples(expected)
            assert master.state_sends == 1 and master.resident_sends == 1
            assert master.ledger.holds[0] == {("tenant", local.task_id)}
        finally:
            master.close()
