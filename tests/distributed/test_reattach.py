"""Fleet reuse and idempotent teardown (ISSUE 8 satellite 2).

The service keeps one worker fleet alive across many tenant runs, so
the lifecycle pieces under it must be reentrant: a ClusterMaster's
``start()`` / ``submit()`` / ``close()`` split has to survive repeated
runs and repeated closes, and namespaced submissions must not collide.
"""

from __future__ import annotations

import copy

import pytest

from repro.distributed.net import ClusterError, ClusterMaster
from repro.sim.engine import run_quantum
from repro.sim.task import make_tasks
from tests.distributed.pools import drive

pytestmark = pytest.mark.slow


def small_tasks(model, n=3, seed=0):
    return make_tasks(model, n_simulations=n, t_end=4.0, quantum=2.0,
                      sample_every=0.5, seed=seed)


def reference_samples(tasks):
    """What the tasks produce when run locally, in (task, samples) form
    -- the oracle for any distributed execution of copies."""
    per_task = {}
    for task in copy.deepcopy(tasks):
        samples = []
        while not task.done:
            samples.extend(task.run_quantum().samples)
        per_task[task.task_id] = samples
    return per_task


def collect(results):
    per_task = {}
    for result in results:
        per_task.setdefault(result.task_id, []).extend(result.samples)
    return per_task


class TestClusterReattach:
    def test_two_runs_reuse_one_fleet(self, neurospora_small):
        """Two runs of equal task ids on one started master: both
        complete and both match the local oracle -- warm workers don't
        bleed state between runs."""
        batch1 = small_tasks(neurospora_small, seed=0)
        batch2 = small_tasks(neurospora_small, seed=100)
        master = ClusterMaster(n_workers=2)
        master.start()
        try:
            got1 = collect(drive(master, batch1))
            got2 = collect(drive(master, batch2))
        finally:
            master.close()
        assert got1 == reference_samples(small_tasks(neurospora_small,
                                                     seed=0))
        assert got2 == reference_samples(small_tasks(neurospora_small,
                                                     seed=100))

    def test_close_is_idempotent(self, neurospora_small):
        master = ClusterMaster(n_workers=1)
        master.start()
        master.close()
        master.close()  # double-close must be a no-op
        master.close()

    def test_close_without_start_is_safe(self):
        master = ClusterMaster(n_workers=1)
        master.close()
        master.close()

    def test_closed_master_rejects_reuse(self, neurospora_small):
        master = ClusterMaster(n_workers=1)
        master.start()
        master.close()
        with pytest.raises(ClusterError):
            master.start()
        with pytest.raises(ClusterError):
            drive(master, small_tasks(neurospora_small))

    def test_run_tasks_requires_start(self, neurospora_small):
        master = ClusterMaster(n_workers=1)
        with pytest.raises(ClusterError):
            drive(master, small_tasks(neurospora_small))

    def test_one_shot_run_still_closes(self, neurospora_small):
        """Start, drive to completion, tear down -- and stay torn
        down."""
        master = ClusterMaster(n_workers=2)
        master.start()
        try:
            got = collect(drive(master, small_tasks(neurospora_small)))
        finally:
            master.close()
        assert got == reference_samples(small_tasks(neurospora_small))
        with pytest.raises(ClusterError):
            master.start()


class TestServeMode:
    def test_execute_resolves_like_a_pool(self, neurospora_small):
        """One task, quantum by quantum through ``submit``: each future
        resolves to the checkpoint to submit next and the quantum's
        result, which add up to the local run."""
        task = small_tasks(neurospora_small, n=1)[0]
        oracle = reference_samples([task])[task.task_id]
        master = ClusterMaster(n_workers=1)
        master.start()
        try:
            samples = []
            current = task
            while not current.done:
                current, result = master.submit(
                    run_quantum, current).result(timeout=60)
                samples.extend(result.samples)
            assert samples == oracle
        finally:
            master.close()

    def test_namespaces_keep_equal_task_ids_apart(self, neurospora_small):
        """Two tenants both submit task_id 0: host affinity and result
        routing must not cross."""
        t_a = small_tasks(neurospora_small, n=1, seed=0)[0]
        t_b = small_tasks(neurospora_small, n=1, seed=100)[0]
        assert t_a.task_id == t_b.task_id
        oracle_a = reference_samples([t_a])[t_a.task_id]
        oracle_b = reference_samples([t_b])[t_b.task_id]
        master = ClusterMaster(n_workers=2)
        master.start()
        try:
            samples = {"a": [], "b": []}
            current = {"a": t_a, "b": t_b}
            while any(not t.done for t in current.values()):
                futures = {ns: master.submit(run_quantum, t, namespace=ns)
                           for ns, t in current.items() if not t.done}
                for ns, future in futures.items():
                    advanced, result = future.result(timeout=60)
                    current[ns] = advanced
                    samples[ns].extend(result.samples)
        finally:
            master.close()
        assert samples["a"] == oracle_a
        assert samples["b"] == oracle_b
        assert samples["a"] != samples["b"]

    def test_execute_after_close_raises(self, neurospora_small):
        master = ClusterMaster(n_workers=1)
        master.start()
        master.close()
        with pytest.raises(ClusterError):
            master.submit(run_quantum, small_tasks(neurospora_small, n=1)[0])

    def test_close_fails_orphaned_futures(self, neurospora_small):
        """Futures still pending when the master closes must fail, not
        hang their waiters forever."""
        master = ClusterMaster(n_workers=1, inflight_window=4)
        master.start()
        futures = [master.submit(run_quantum, t)
                   for t in small_tasks(neurospora_small, n=4)]
        master.close()
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.append("ok")
            except ClusterError:
                outcomes.append("failed")
        assert "failed" in outcomes or all(o == "ok" for o in outcomes)
        assert len(outcomes) == 4  # nobody hung

