"""Shared-memory result ring: segment lifecycle, leak handling, and the
cluster runtime's use of it as its local data plane.

The lifecycle invariants under test: a segment created by a worker is
unlinked exactly when its last consumer releases; blocks the master
drops and blocks the aligner ingests both count as consumers; a worker
dying mid-publish leaves an orphan that leak detection sees and the
closing sweep reclaims; and none of this changes a single sample value.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.distributed.message import encode_frame, encode_frame_oob
from repro.distributed.net import (Checkpoint, ClusterError, ClusterMaster,
                                   Hello, ResultMsg, WorkerFailure)
from repro.distributed.shm import (
    SEGMENT_PREFIX,
    SHM_MIN_BYTES,
    ShmCoalescedEntry,
    leaked_segments,
    make_prefix,
    map_results,
    publish_results,
    sweep_orphans,
)
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.task import ResultBlock


def result_block(first_id=0, n_members=4, n=128, n_obs=4, grid_start=0,
                 done=False):
    """A quantum's block (``n_members=1``: a scalar task's)."""
    values = (np.arange(n_members * n * n_obs, dtype=float)
              .reshape(n_members, n, n_obs) + 1000 * first_id)
    return ResultBlock(range(first_id, first_id + n_members), grid_start,
                       np.arange(n, dtype=float) * 0.5, values, done)


@pytest.fixture
def prefix():
    p = make_prefix()
    yield p
    sweep_orphans(p)  # never leak past a failing test


class TestPublishMap:
    def test_roundtrip_preserves_samples(self, prefix):
        originals = [result_block(first_id=4 * i) for i in range(3)]
        block = publish_results(originals, prefix)
        assert block.name is not None
        assert block.payload_nbytes >= sum(r._values.nbytes for r in originals)
        mapped = map_results(block)
        assert len(mapped) == 3
        for orig, clone in zip(originals, mapped):
            assert clone.task_ids == orig.task_ids
            assert clone.grid_start == orig.grid_start
            assert clone.done == orig.done
            assert np.array_equal(clone._times, orig._times)
            assert np.array_equal(clone._values, orig._values)
        for clone in mapped:
            clone.release()

    def test_small_payload_stays_inline(self, prefix):
        small = [result_block(n_members=1, n=4, n_obs=2)]
        assert small[0]._values.nbytes < SHM_MIN_BYTES
        block = publish_results(small, prefix)
        assert block.name is None
        assert block.entries[0] is small[0]
        assert leaked_segments(prefix) == []
        tiny = result_block(n_members=2, n=4, n_obs=2)
        assert publish_results([tiny], prefix).entries == [tiny]

    def test_row_form_and_empty_results_ride_inline(self, prefix):
        """A one-sample scalar quantum and a done marker stay inline next
        to a block that is shared."""
        rows = result_block(first_id=1, n_members=1, n=1, n_obs=1)
        empty = result_block(first_id=2, n_members=1, n=0, done=True)
        big = result_block()
        block = publish_results([rows, big, empty], prefix)
        assert block.name is not None
        assert block.entries[0] is rows
        assert isinstance(block.entries[1], ShmCoalescedEntry)
        assert block.entries[2] is empty
        mapped = map_results(block)
        assert mapped[0] is rows and mapped[2] is empty
        assert np.array_equal(mapped[1]._values, big._values)
        mapped[1].release()

    def test_big_scalar_block_is_shared(self, prefix):
        """Size decides, not the task type: a scalar task's block above
        SHM_MIN_BYTES goes through the ring like a batch task's."""
        big = result_block(n_members=1, n=1024, n_obs=8)
        assert big._values.nbytes > SHM_MIN_BYTES
        block = publish_results([big], prefix)
        assert block.name is not None
        (mapped,) = map_results(block)
        assert mapped.task_ids == range(0, 1)
        assert np.array_equal(mapped._values, big._values)
        mapped.release()
        assert leaked_segments(prefix) == []


class TestSegmentLifecycle:
    def test_unlinked_after_last_release(self, prefix):
        block = publish_results(
            [result_block(first_id=4 * i) for i in range(2)], prefix)
        mapped = map_results(block)
        segment = mapped[0]._segment
        assert segment is mapped[1]._segment  # one segment per quantum
        assert segment.refs == 2
        assert leaked_segments(prefix) == [block.name]
        mapped[0].release()
        assert leaked_segments(prefix) == [block.name]  # one consumer left
        mapped[1].release()
        assert leaked_segments(prefix) == []

    def test_release_severs_arrays(self, prefix):
        """After release the pages may be unmapped: the result must fail
        a stale read loudly instead of touching dead memory."""
        block = publish_results([result_block()], prefix)
        result = map_results(block)[0]
        ingested = result._values.copy()
        result.release()
        assert result._values is None and result._times is None
        with pytest.raises(AttributeError):
            len(result)
        assert ingested.shape == (4, 128, 4)

    def test_double_release_is_single_decrement(self, prefix):
        block = publish_results(
            [result_block(first_id=4 * i) for i in range(2)], prefix)
        mapped = map_results(block)
        mapped[0].release()
        mapped[0].release()  # idempotent: must not steal 1's reference
        assert leaked_segments(prefix) == [block.name]
        mapped[1].release()
        assert leaked_segments(prefix) == []

    def test_sweep_reclaims_unmapped_segment(self, prefix):
        block = publish_results([result_block()], prefix)
        assert leaked_segments(prefix) == [block.name]
        assert sweep_orphans(prefix) == [block.name]
        assert leaked_segments(prefix) == []

    def test_sweep_ignores_other_runs(self, prefix):
        other = make_prefix()
        block = publish_results([result_block()], other)
        try:
            assert sweep_orphans(prefix) == []
            assert leaked_segments(other) == [block.name]
        finally:
            sweep_orphans(other)


def _publish_then_die(prefix):
    """Pool-worker chaos: create the segment, then die before the
    descriptor ever reaches the master."""
    publish_results([result_block()], prefix)
    os._exit(1)


class TestWorkerDeath:
    def test_worker_dying_mid_publish_leaves_sweepable_orphan(self, prefix):
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_publish_then_die, prefix).result()
        leaked = leaked_segments(prefix)
        assert len(leaked) == 1  # nobody will ever release it...
        assert sweep_orphans(prefix) == leaked  # ...except the sweep
        assert leaked_segments(prefix) == []


def _shm_config(**overrides):
    base = dict(n_simulations=32, t_end=5.0, sample_every=0.25,
                quantum=2.5, n_sim_workers=2, window_size=5, seed=0,
                engine="batch", batch_size=32, keep_cuts=True)
    base.update(overrides)
    return WorkflowConfig(**base)


class TestProcessesBackendZeroCopy:
    def test_shm_path_actually_engaged(self, neurospora_small):
        result = run_workflow(neurospora_small,
                              _shm_config(backend="processes", trace=True))
        counters = result.trace_report.counters
        assert counters.get("net.shm_blocks", 0) >= 1
        assert counters.get("net.shm_bytes", 0) > 0

    def test_big_scalar_quanta_go_through_shm(self, neurospora_small):
        """200 samples x 3 observables per quantum is above
        SHM_MIN_BYTES, so a scalar task's block goes through shm too,
        and the windows are the threads backend's."""
        def windows(backend):
            result = run_workflow(neurospora_small, _shm_config(
                engine="flat", n_simulations=3, t_end=4.0,
                sample_every=0.01, quantum=2.0, window_size=100,
                keep_cuts=False, trace=True, backend=backend))
            return result.trace_report.counters, [
                (w.start_time, w.end_time, w.window_mean,
                 [(c.mean, c.variance) for c in w.cuts])
                for w in result.windows]

        counters, got = windows("processes")
        assert counters["sim.quanta"] == 6
        assert counters["net.shm_blocks"] == 6
        assert got == windows("threads")[1]

    def test_run_leaves_no_segments_behind(self, neurospora_small):
        run_workflow(neurospora_small, _shm_config(backend="processes"))
        mine = f"{SEGMENT_PREFIX}-{os.getpid()}"
        assert leaked_segments(mine) == []


def _stderr_of(script):
    """What a fresh interpreter running ``script`` -- and its resource
    tracker, which reports at *its* exit, where ``-W error`` in the
    parent cannot see it -- printed on stderr."""
    import repro
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          capture_output=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stderr


class TestResourceTracker:
    """Mapping a segment registers its name with the resource tracker
    and only a *successful* ``unlink()`` takes it off again: a release
    that finds the file already swept must do so itself."""

    def test_release_after_sweep_leaves_the_tracker_clean(self):
        assert _stderr_of(
            "import numpy as np\n"
            "from repro.distributed.shm import (make_prefix, map_results,\n"
            "    publish_results, sweep_orphans)\n"
            "from repro.sim.task import ResultBlock\n"
            "block = ResultBlock(range(64), 0, np.arange(16.0),\n"
            "    np.zeros((64, 16, 4)), False)\n"
            "prefix = make_prefix()\n"
            "(mapped,) = map_results(publish_results([block], prefix))\n"
            "assert sweep_orphans(prefix)\n"
            "mapped.release()\n") == ""

    def test_a_run_whose_last_release_loses_to_the_sweep(self):
        """The closing master's sweep races the aligner's last release;
        under load about one ``processes`` run in four lost it and
        ended with a leak warning.  Here every release is late."""
        assert "resource_tracker" not in _stderr_of(
            "import time\n"
            "from repro.distributed.shm import Segment\n"
            "from repro.models import neurospora_network\n"
            "from repro.pipeline import WorkflowConfig, run_workflow\n"
            "release = Segment.release\n"
            "def late(self):\n"
            "    time.sleep(0.5)\n"
            "    release(self)\n"
            "Segment.release = late\n"
            "run_workflow(neurospora_network(omega=20), WorkflowConfig(\n"
            "    n_simulations=32, t_end=5.0, sample_every=0.25,\n"
            "    quantum=2.5, n_sim_workers=2, window_size=5,\n"
            "    engine='batch', batch_size=32, backend='processes'))\n")


class TestMasterSegmentLifetime:
    """What the master maps but does not forward it releases on the
    spot, not at ``close()`` (a shared fleet may never get there)."""

    @pytest.mark.parametrize("owed", ["other", "k"],
                             ids=["stale-frame", "serve-result-without-future"])
    def test_dropped_result_gives_its_segment_back(self, prefix, owed):
        """A frame for a task its worker does not owe, and one whose
        future is gone (the pool failed or closed under it), from a
        worker driven by hand over a real socket."""
        master = ClusterMaster(n_workers=1, spawn_local=False)
        starter = threading.Thread(target=master.start)
        starter.start()
        while not master.port:
            time.sleep(0.01)
        worker = socket.create_connection(("127.0.0.1", master.port))
        try:
            worker.sendall(encode_frame(Hello(0, os.getpid())))
            starter.join(timeout=30.0)
            future = master.submit(
                None, Checkpoint(owed, False, 0., 0, 0, b""))
            if owed == "k":
                worker.sendall(encode_frame(WorkerFailure(0, "test")))
                with pytest.raises(ClusterError):
                    future.result(timeout=30.0)
            block = publish_results([result_block()], prefix)
            assert leaked_segments(prefix) == [block.name]
            worker.sendall(encode_frame_oob(ResultMsg(
                0, Checkpoint("k", False, 1.0, 1, 1, b""), block)))
            deadline = time.monotonic() + 30.0
            while leaked_segments(prefix) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert master.stale_results == (owed != "k")
            assert leaked_segments(prefix) == []
        finally:
            worker.close()
            master.close()


class TestDeadOwnerSweep:
    """Startup hygiene (ISSUE 8 satellite 1): a service restarting after
    a crash reclaims segments whose owning master process is gone --
    and only those."""

    def test_dead_owner_segment_is_swept(self):
        from repro.distributed.shm import sweep_dead_owners

        # a pid that certainly is not running: fork a child that exits
        # immediately, then use its (now free) pid as the "crashed
        # service"
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        dead_prefix = make_prefix(master_pid=pid, tag="crashed")
        block = publish_results([result_block()], dead_prefix)
        try:
            swept = sweep_dead_owners()
            assert block.name in swept
            assert leaked_segments(dead_prefix) == []
        finally:
            sweep_orphans(dead_prefix)

    def test_live_owner_segments_are_untouched(self, prefix):
        from repro.distributed.shm import sweep_dead_owners

        block = publish_results([result_block()], prefix)
        try:
            swept = sweep_dead_owners()
            assert block.name not in swept
            assert leaked_segments(prefix) == [block.name]
        finally:
            sweep_orphans(prefix)

    def test_tagged_prefix_embeds_owner_and_tag(self):
        p = make_prefix(tag="run-7")
        assert p.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-run-7-")

    def test_fleet_start_runs_the_sweep(self):
        """The shared fleet's startup is the service's hygiene hook."""
        from repro.distributed.shm import sweep_dead_owners
        from repro.service.fleet import SharedFleet

        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        dead_prefix = make_prefix(master_pid=pid, tag="crashed")
        block = publish_results([result_block()], dead_prefix)
        fleet = SharedFleet(1, backend="threads")
        try:
            fleet.start()
            assert block.name in fleet.stats()["swept_at_start"]
            assert leaked_segments(dead_prefix) == []
        finally:
            fleet.close()
            sweep_orphans(dead_prefix)


class TestFailedTenant:
    """A tenant run that fails on a long-lived shared fleet gives its
    segments back before anyone closes the master: blocks queued in (or
    later pushed into) a channel whose consumer died are released by the
    channel, the block the aligner held by the aligner."""

    SPEC = {"model": "neurospora", "config": dict(
        n_simulations=64, t_end=24.0, sample_every=0.25, quantum=2.0,
        window_size=8, seed=3, engine="batch", batch_size=32)}

    @pytest.mark.parametrize("target", [
        "repro.analysis.engines.StatEngineNode.svc",
        "repro.sim.alignment.TrajectoryAligner._emit_block"],
        ids=["stat-engine", "aligner"])
    def test_no_segment_outlives_the_failed_run(self, monkeypatch, target):
        from repro.service.fleet import SharedFleet
        from repro.service.protocol import RunSpec
        from repro.service.run_manager import RunManager, RunState

        def explode(*_args):
            raise RuntimeError("boom")

        fleet = SharedFleet(2, backend="processes").start()
        manager = RunManager(fleet)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(target, explode)
                failed = manager.submit(RunSpec.from_jsonable(self.SPEC))
                assert failed.wait(timeout=120)
            assert failed.state == RunState.FAILED and "boom" in failed.error
            assert fleet._master.shm_blocks > 0
            assert leaked_segments(fleet._master.shm_prefix) == []
            # the fleet is still good: the next tenant is bit-identical
            # to a solo run
            spec = RunSpec.from_jsonable(self.SPEC)
            tenant = manager.submit(spec)
            assert tenant.wait(timeout=120)
            assert tenant.state == RunState.DONE
            solo = run_workflow(spec.build_model(), spec.config)
            assert [(w.window_mean, w.ci_half_width) for w in tenant.windows] \
                == [(w.window_mean, w.ci_half_width) for w in solo.windows]
            assert leaked_segments(fleet._master.shm_prefix) == []
        finally:
            manager.close()
            fleet.close()
