"""Sweep runs through the service: fused execution over the shared
fleet, identical to an in-process sweep of the same spec."""

import numpy as np
import pytest

from repro.models import neurospora_network
from repro.service.fleet import SharedFleet
from repro.service.protocol import RunSpec
from repro.service.run_manager import RunManager, RunState
from repro.sweep import SweepSpec, run_sweep

PAYLOAD = {
    "model": "neurospora",
    "omega": 20,
    "config": {"n_simulations": 1, "t_end": 2.0, "sample_every": 0.5,
               "quantum": 1.0},
    "sweep": {"points": [{"translation": 0.3}, {"translation": 0.7}],
              "n_trajectories": 4, "seed": 5},
}


@pytest.fixture
def manager():
    fleet = SharedFleet(2, backend="threads").start()
    manager = RunManager(fleet)
    yield manager
    manager.close()
    fleet.close()


class TestServiceSweep:
    def test_sweep_run_completes_and_publishes(self, manager):
        handle = manager.submit(RunSpec.from_jsonable(PAYLOAD))
        assert handle.wait(60.0)
        assert handle.state == RunState.DONE, handle.error
        events = handle.events()
        kinds = [e["type"] for e in events]
        assert "sweep" in kinds and kinds[-1] == "end"
        sweep_event = next(e for e in events if e["type"] == "sweep")
        assert sweep_event["n_points"] == 2
        assert sweep_event["observables"] == ["M", "FC", "FN"]
        assert sweep_event["times"] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert handle.status()["sweep_points"] == 2

    def test_fleet_sweep_matches_in_process_oracle(self, manager):
        handle = manager.submit(RunSpec.from_jsonable(PAYLOAD))
        assert handle.wait(60.0)
        assert handle.state == RunState.DONE, handle.error
        oracle = run_sweep(
            neurospora_network(omega=20),
            SweepSpec.from_dict(PAYLOAD["sweep"]),
            t_end=2.0, quantum=1.0, sample_every=0.5)
        assert np.array_equal(handle.sweep_result.mean, oracle.mean)
        assert np.array_equal(handle.sweep_result.variance,
                              oracle.variance)

    def test_cancel_drains_sweep_early(self, manager):
        slow = dict(PAYLOAD)
        slow["config"] = dict(PAYLOAD["config"],
                              t_end=500.0, quantum=0.5)
        slow["sweep"] = dict(PAYLOAD["sweep"], n_trajectories=8)
        handle = manager.submit(RunSpec.from_jsonable(slow))
        manager.cancel(handle.run_id)
        assert handle.wait(60.0)
        assert handle.state == RunState.CANCELLED
        # cuts past the cancellation point were never reached
        assert any(t is None
                   for e in handle.events() if e["type"] == "sweep"
                   for t in e["times"])
