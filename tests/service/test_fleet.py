"""SharedFleet semantics on the threads backend: tenancy, backpressure,
fair share, and lifecycle.  (The processes/cluster legs are covered by
the integration suite; the scheduling logic is backend-independent.)"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait

import pytest

from repro.service.fleet import FleetClosed, SharedFleet


def _fleet(**kwargs):
    kwargs.setdefault("backend", "threads")
    kwargs.setdefault("n_workers", 2)
    return SharedFleet(**kwargs).start()


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
        running = client.submit(release.wait, 10)
        time.sleep(0.1)  # let it dispatch and occupy the only worker
        queued = client.submit(lambda: "never")
        closer = threading.Thread(target=fleet.close)
        closer.start()
        with pytest.raises(FleetClosed):
            queued.result(timeout=5)
        release.set()  # the in-flight job completes normally
        assert running.result(timeout=5) is True
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
            running = client.submit(release.wait, 10)
            time.sleep(0.1)
            queued = client.submit(lambda: "never")
            client.close()
            with pytest.raises(FleetClosed):
                queued.result(timeout=5)
            release.set()
            assert running.result(timeout=5) is True
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
            futures = [client.submit(job) for _ in range(10)]
            wait(futures, timeout=30)
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
            futures = [c.submit(job) for c in clients for _ in range(5)]
            wait(futures, timeout=30)
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
            futures = [sweep.submit(job, "s") for _ in range(20)]
            time.sleep(0.05)  # sweep builds a backlog first
            futures += [interactive.submit(job, "i") for _ in range(5)]
            wait(futures, timeout=30)
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
            futures = [heavy.submit(job, "heavy") for _ in range(40)]
            futures += [light.submit(job, "light") for _ in range(40)]
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
            wait(futures, timeout=30)
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
