"""SharedFleet semantics on the threads backend: tenancy, backpressure,
fair share, and lifecycle, each tenant driven by lane threads as a run's
engines drive it.  (The processes/cluster legs are covered by the
integration suite; the one processes test here runs over a stand-in
master.)"""

from __future__ import annotations

import threading
import time
import types
from collections import deque
from concurrent.futures import Future

import pytest

from repro.distributed import net
from repro.service.fleet import FleetClosed, SharedFleet


def _fleet(**kwargs):
    kwargs.setdefault("backend", "threads")
    kwargs.setdefault("n_workers", 2)
    return SharedFleet(**kwargs).start()


class Lanes:
    """``n`` threads driving one tenant's client as a run's engines do:
    each submits the next of ``jobs`` (``(fn, *args)``) and waits for
    its result; a lane that meets an exception records it and stops."""

    def __init__(self, client, jobs, n=1):
        self.jobs = deque(jobs)
        self.results: list = []
        self.errors: list = []
        self.threads = [threading.Thread(target=self._lane, args=(client,),
                                         daemon=True) for _ in range(n)]
        for thread in self.threads:
            thread.start()

    def _lane(self, client):
        while True:
            try:
                fn, *args = self.jobs.popleft()
            except IndexError:
                return
            try:
                self.results.append(client.submit(fn, *args).result())
            except Exception as exc:  # noqa: BLE001 - the test reads it
                self.errors.append(exc)
                return

    def join(self, timeout=30.0):
        for thread in self.threads:
            thread.join(timeout)
        assert not any(thread.is_alive() for thread in self.threads)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestLifecycle:
    def test_start_is_idempotent_while_open(self):
        fleet = _fleet()
        try:
            assert fleet.start() is fleet
        finally:
            fleet.close()

    def test_close_is_idempotent(self):
        fleet = _fleet()
        fleet.close()
        fleet.close()
        assert fleet.closed

    def test_closed_fleet_rejects_everything(self):
        fleet = _fleet()
        fleet.close()
        with pytest.raises(FleetClosed):
            fleet.start()
        with pytest.raises(FleetClosed):
            fleet.client("t")

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            SharedFleet(0)
        with pytest.raises(ValueError):
            SharedFleet(2, backend="gpu-rack")

    def test_close_fails_pending_lets_inflight_finish(self):
        release = threading.Event()
        fleet = _fleet(n_workers=1)
        client = fleet.client("t", max_inflight=1)
        running = Lanes(client, [(release.wait, 10)])
        # the first lane occupies the only worker, the second waits
        wait_for(lambda: fleet.tenant_stats("t")["inflight"] == 1)
        queued = Lanes(client, [(lambda: "never",)])
        wait_for(lambda: fleet.tenant_stats("t")["pending"] == 1)
        closer = threading.Thread(target=fleet.close)
        closer.start()
        queued.join(timeout=5)
        assert [type(exc) for exc in queued.errors] == [FleetClosed]
        release.set()  # the in-flight job completes normally
        running.join(timeout=5)
        assert running.results == [True]
        closer.join(timeout=10)


class TestTenancy:
    def test_submit_requires_registration(self):
        fleet = _fleet()
        try:
            with pytest.raises(KeyError):
                fleet.submit("ghost", lambda: 1)
        finally:
            fleet.close()

    def test_duplicate_tenant_rejected(self):
        fleet = _fleet()
        try:
            fleet.client("t")
            with pytest.raises(KeyError):
                fleet.client("t")
        finally:
            fleet.close()

    def test_tenant_key_reusable_after_release(self):
        """The service runs tenants sequentially under reused fleet --
        releasing a tenant must free its key."""
        fleet = _fleet()
        try:
            client = fleet.client("t")
            assert client.submit(lambda: 41).result(timeout=10) == 41
            client.close()
            client2 = fleet.client("t")
            assert client2.submit(lambda: 42).result(timeout=10) == 42
        finally:
            fleet.close()

    def test_release_fails_pending_work(self):
        release = threading.Event()
        fleet = _fleet(n_workers=1)
        try:
            client = fleet.client("t", max_inflight=1)
            running = Lanes(client, [(release.wait, 10)])
            wait_for(lambda: fleet.tenant_stats("t")["inflight"] == 1)
            queued = Lanes(client, [(lambda: "never",)])
            wait_for(lambda: fleet.tenant_stats("t")["pending"] == 1)
            client.close()
            queued.join(timeout=5)
            assert [type(exc) for exc in queued.errors] == [FleetClosed]
            release.set()
            running.join(timeout=5)
            assert running.results == [True]
        finally:
            fleet.close()

    def test_results_and_exceptions_propagate(self):
        fleet = _fleet()
        try:
            client = fleet.client("t")
            assert client.submit(pow, 2, 10).result(timeout=10) == 1024
            boom = client.submit(_raise_value_error)
            with pytest.raises(ValueError, match="boom"):
                boom.result(timeout=10)
        finally:
            fleet.close()


def _raise_value_error():
    raise ValueError("boom")


class TestBackpressure:
    def test_per_tenant_inflight_bound_holds(self):
        """A tenant with max_inflight=1 never has two quanta running at
        once, however many it queues."""
        peak = [0]
        current = [0]
        lock = threading.Lock()

        def job():
            with lock:
                current[0] += 1
                peak[0] = max(peak[0], current[0])
            time.sleep(0.02)
            with lock:
                current[0] -= 1

        fleet = _fleet(n_workers=4)
        try:
            client = fleet.client("t", max_inflight=1)
            lanes = Lanes(client, [(job,)] * 10, n=4)
            lanes.join()
            assert lanes.errors == [] and len(lanes.results) == 10
            assert peak[0] == 1
        finally:
            fleet.close()

    def test_global_inflight_bounded_by_workers(self):
        peak = [0]
        current = [0]
        lock = threading.Lock()

        def job():
            with lock:
                current[0] += 1
                peak[0] = max(peak[0], current[0])
            time.sleep(0.02)
            with lock:
                current[0] -= 1

        fleet = _fleet(n_workers=2)
        try:
            clients = [fleet.client(f"t{i}") for i in range(4)]
            lanes = [Lanes(c, [(job,)] * 5, n=2) for c in clients]
            for lane in lanes:
                lane.join()
                assert lane.errors == []
            assert peak[0] <= 2
        finally:
            fleet.close()


class TestPoolWidth:
    def test_client_states_the_fleets_width(self):
        """A tenant's client is a pool like any other: the fleet's
        workers run dispatches at once, the tenant holds
        ``max_inflight`` of them (default: the fleet's workers)."""
        fleet = _fleet(n_workers=3)
        try:
            default = fleet.client("a")
            bounded = fleet.client("b", max_inflight=1)
            assert (default.n_workers, default.lanes) == (3, 3)
            assert (bounded.n_workers, bounded.lanes) == (3, 1)
        finally:
            fleet.close()

    def test_tenant_fuses_to_the_fleets_workers(self):
        """Six seed blocks on a 2-worker fleet run as two lockstep
        tasks, and the windows are the batch run's."""
        from repro.pipeline import run_workflow
        from repro.service.protocol import RunSpec
        from repro.service.run_manager import RunManager, RunState

        spec = RunSpec.from_jsonable({
            "model": "neurospora", "omega": 20,
            "config": {"n_simulations": 24, "t_end": 4.0,
                       "sample_every": 0.5, "quantum": 1.0,
                       "window_size": 4, "seed": 3, "engine": "batch",
                       "batch_size": 4}})
        fleet = _fleet(n_workers=2)
        manager = RunManager(fleet)
        try:
            handle = manager.submit(spec)
            assert handle.wait(60.0)
            assert handle.state == RunState.DONE, handle.error
        finally:
            manager.close()
            fleet.close()
        counters = handle.tracer.report().counters
        assert counters["sim.seed_blocks"] == 6
        assert counters["sim.tasks_generated"] == 2
        assert counters["sim.lockstep_rows_max"] == 12
        solo = run_workflow(spec.build_model(), spec.config)
        assert handle.windows == solo.windows


class TestFairShare:
    def test_backlogged_tenant_cannot_starve_interactive(self):
        """With a deep sweep backlog on a 1-worker fleet, an interactive
        tenant's jobs still interleave ~1:1 (equal weights)."""
        order = []
        lock = threading.Lock()

        def job(tag):
            with lock:
                order.append(tag)
            time.sleep(0.005)

        fleet = _fleet(n_workers=1)
        try:
            sweep = fleet.client("sweep", max_inflight=1)
            interactive = fleet.client("interactive", max_inflight=1)
            # more lanes than slots: each tenant always has a submitter
            # waiting, as a run whose emitter holds a backlog does
            lanes = [Lanes(sweep, [(job, "s")] * 20, n=4)]
            time.sleep(0.05)  # sweep builds a backlog first
            lanes.append(Lanes(interactive, [(job, "i")] * 5, n=2))
            for lane in lanes:
                lane.join()
            # every interactive job dispatched well before the sweep
            # backlog drained: none of them sits in the final stretch
            last_i = max(i for i, tag in enumerate(order) if tag == "i")
            assert last_i < len(order) - 5, order
        finally:
            fleet.close()

    def test_weights_skew_dispatch_ratio(self):
        counts = {"heavy": 0, "light": 0}
        lock = threading.Lock()

        def job(tag):
            with lock:
                counts[tag] += 1
            time.sleep(0.002)

        fleet = _fleet(n_workers=1)
        try:
            heavy = fleet.client("heavy", weight=4.0, max_inflight=1)
            light = fleet.client("light", weight=1.0, max_inflight=1)
            lanes = [Lanes(heavy, [(job, "heavy")] * 40, n=2),
                     Lanes(light, [(job, "light")] * 40, n=2)]
            # sample mid-flight: once both backlogs are deep, dispatch
            # follows the 4:1 ticket ratio
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    done = counts["heavy"] + counts["light"]
                if done >= 30:
                    break
                time.sleep(0.01)
            with lock:
                heavy_n, light_n = counts["heavy"], counts["light"]
            assert heavy_n > 2 * light_n, (heavy_n, light_n)
            for lane in lanes:
                lane.join()
        finally:
            fleet.close()

    def test_stats_expose_tenant_accounting(self):
        fleet = _fleet()
        try:
            client = fleet.client("t", weight=2.0)
            client.submit(lambda: 1).result(timeout=10)
            stats = fleet.stats()
            assert stats["backend"] == "threads"
            assert stats["quanta_dispatched"] == 1
            tenant = stats["tenants"]["t"]
            assert tenant["submitted"] == 1
            assert tenant["completed"] == 1
            assert tenant["weight"] == 2.0
            assert fleet.tenant_stats("ghost") is None
        finally:
            fleet.close()

    def test_stats_report_each_tenants_lag(self):
        """``GET /fleet`` shows how far behind fair each tenant is."""
        fleet = _fleet(n_workers=1)
        try:
            served = fleet.client("served")
            fleet.client("idle")
            for _ in range(3):
                served.submit(lambda: None).result(timeout=10)
            tenants = fleet.stats()["tenants"]
            assert tenants["served"]["lag"] == -3.0
            assert tenants["idle"]["lag"] == 0.0
        finally:
            fleet.close()

    def test_inflight_wait_counts_the_threads_gate(self):
        """``inflight_wait_s`` is seconds submitters waited for a slot
        on every backend; a threads fleet counts its gate's."""
        release = threading.Event()
        fleet = _fleet(n_workers=1)
        try:
            client = fleet.client("t")
            running = Lanes(client, [(release.wait, 10)])
            wait_for(lambda: fleet.tenant_stats("t")["inflight"] == 1)
            queued = Lanes(client, [(lambda: None,)])
            wait_for(lambda: fleet.tenant_stats("t")["pending"] == 1)
            time.sleep(0.05)
            release.set()
            running.join()
            queued.join()
            stats = fleet.stats()
            assert stats["inflight_wait_s"] >= 0.05
            assert stats["tenants"]["t"]["wait_s"] >= 0.05
            assert stats["tenants"]["t"]["pending"] == 0
        finally:
            fleet.close()


class StuckMaster:
    """Stands in for the fleet's ClusterMaster: tenant ``a``'s dispatch
    waits for ``busy`` to clear (its pinned worker's one slot is taken),
    any other tenant's runs at once (its worker is idle)."""

    busy = threading.Event()
    entered = threading.Event()

    def __init__(self, n_workers, inflight_window=1):
        self.ledger = types.SimpleNamespace(scheduler=None)
        self.inflight_wait_s = 0.0

    def start(self):
        pass

    def close(self):
        self.busy.set()

    def forget(self, namespace):
        pass

    def submit(self, fn, task, namespace=None):
        if namespace == "a":
            self.entered.set()
            self.busy.wait(30)
        future: Future = Future()
        future.set_result(fn(task))
        StuckMaster.last = future
        return future


class TestIndependentWorkers:
    def test_a_tenant_waiting_on_a_busy_worker_holds_up_no_other(
            self, monkeypatch):
        """One tenant's dispatch stuck behind its busy worker must not
        stall another tenant whose worker is idle; the submit hands back
        the master's own future."""
        StuckMaster.busy.clear()
        StuckMaster.entered.clear()
        monkeypatch.setattr(net, "ClusterMaster", StuckMaster)
        fleet = SharedFleet(2, backend="processes").start()
        try:
            stuck = Lanes(fleet.client("a"), [(str, "a")])
            assert StuckMaster.entered.wait(10)
            free = fleet.client("b").submit(str, "b")
            assert free.result(timeout=5) == "b"
            assert free is StuckMaster.last, "not the master's own future"
            assert not stuck.results, "a ran before its worker freed"
            StuckMaster.busy.set()
            stuck.join()
            assert stuck.results == ["a"]
        finally:
            StuckMaster.busy.set()
            fleet.close()
