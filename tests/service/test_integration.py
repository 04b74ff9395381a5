"""Acceptance: N concurrent tenant runs over one shared process fleet.

Pins the two promises the service makes (ISSUE 8 acceptance criteria):

(a) **bit-identical results** -- every tenant's streamed window
    statistics equal, field for field and bit for bit, a solo batch run
    (the CLI path, :func:`repro.pipeline.run_workflow`) of the same
    config, no matter how the fleet interleaved the tenants;

(b) **fair share** -- with a saturating parameter sweep co-resident, an
    interactive run's latency stays within 2x of its solo latency
    (FIFO dispatch would make it wait for the sweep's entire backlog).
"""

from __future__ import annotations

import glob
import threading
import time

import pytest

from repro.pipeline import run_workflow
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient
from repro.service.protocol import RunSpec, windows_to_jsonable
from repro.service.run_manager import RunState

pytestmark = pytest.mark.slow


def tenant_spec(seed, n_simulations=8, t_end=4.0):
    return {
        "model": "lotka-volterra",
        "config": {"n_simulations": n_simulations, "t_end": t_end,
                   "sample_every": 0.2, "quantum": 1.0,
                   "window_size": 10, "window_slide": 10,
                   "kmeans_k": 2, "seed": seed},
    }


@pytest.fixture(scope="module")
def app():
    with ServiceApp(port=0, n_workers=4, backend="processes")\
            .start_background() as served:
        yield served


@pytest.fixture(scope="module")
def client(app):
    return ServiceClient(*app.address, timeout=300.0)


class TestBitIdentical:
    def test_three_concurrent_tenants_match_solo_cli_runs(self, client):
        """Three runs race over the shared fleet; each tenant's stream
        must equal its solo batch result exactly."""
        specs = {seed: tenant_spec(seed) for seed in (101, 202, 303)}
        run_ids = {seed: client.submit(spec)
                   for seed, spec in specs.items()}
        streamed: dict[int, list] = {}
        errors: list[BaseException] = []

        def consume(seed):
            try:
                streamed[seed] = client.stream_windows(run_ids[seed])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=consume, args=(seed,))
                   for seed in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors

        for seed, spec in specs.items():
            parsed = RunSpec.from_jsonable(spec)
            solo = run_workflow(parsed.build_model(), parsed.config)
            expected = windows_to_jsonable(solo.windows)
            assert expected, f"seed {seed}: empty batch result"
            assert streamed[seed] == expected, \
                f"seed {seed}: streamed windows differ from solo run"

    def test_no_shared_memory_leaked_across_runs(self, client):
        """Per-run namespaces + teardown sweep: nothing left in /dev/shm
        once the tenants of the previous test finished."""
        run_id = client.submit(tenant_spec(909, n_simulations=4,
                                           t_end=2.0))
        client.wait(run_id)
        assert glob.glob("/dev/shm/repro-shm-*") == []


class TestFairShare:
    def test_interactive_latency_within_2x_of_solo(self, client):
        """Fairness on a CI box: this container typically has ONE core,
        so wall-clock share equals the share of *running* worker
        processes -- stride dispatch order alone cannot beat a 50/50
        CPU split.  The per-tenant in-flight bound (ISSUE 8's
        backpressure) is what protects latency here: the sweep's
        backlog is effectively unbounded, but it may occupy only one
        worker slot, so the interactive run keeps the lion's share of
        the machine.  (Pure dispatch-order fairness is pinned
        separately in test_fleet.py on deterministic thread jobs.)"""
        interactive = tenant_spec(11, n_simulations=8, t_end=4.0)

        # solo baseline: the interactive run with the fleet to itself
        t0 = time.monotonic()
        solo_id = client.submit(interactive)
        solo_windows = client.stream_windows(solo_id)
        solo_s = time.monotonic() - t0
        assert solo_windows

        # a saturating sweep: a backlog of ~77k quanta that would hold
        # every slot forever if the service let it; backpressure caps
        # its occupancy at one worker (one engine: the rest of the
        # backlog waits in the run's own emitter)
        sweep = tenant_spec(77, n_simulations=128, t_end=600.0)
        sweep["max_inflight"] = 1
        sweep_id = client.submit(sweep)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            stats = client.fleet()["tenants"].get(f"{sweep_id}")
            if stats and stats["inflight"] >= 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("sweep never saturated its worker share")

        try:
            t0 = time.monotonic()
            co_id = client.submit(interactive)
            co_windows = client.stream_windows(co_id)
            co_s = time.monotonic() - t0
        finally:
            client.cancel(sweep_id)
            end = list(client.stream(sweep_id))[-1]
            assert end["state"] == RunState.CANCELLED

        # same spec, same results -- co-residency affects when, not what
        assert co_windows == solo_windows
        assert co_s <= 2.0 * solo_s + 0.5, \
            (f"interactive run took {co_s:.2f}s co-resident vs "
             f"{solo_s:.2f}s solo (limit 2x)")

    def test_sweep_made_progress_while_sharing(self, client):
        """The flip side of fairness: the interactive tenant must not
        have starved the sweep either -- dispatch counters show both
        were served."""
        stats = client.fleet()
        assert stats["quanta_dispatched"] > 0
