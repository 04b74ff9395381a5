"""Chained dispatch: an engine (or a worker process) runs quanta until
one yields a sample or the task is done, so a quantum that yields no
sample is never a stream item, a feedback hop or a round trip.

Every quantum keeps its boundary, so the windows must equal a hand loop
that calls ``task.run_quantum()`` once per quantum, on every backend; the
counters must still count quanta where they say quanta and dispatches
where they say dispatches.
"""

from __future__ import annotations

import pickle

import pytest

from repro.distributed.net import Checkpoint, KillWorkerAfter, \
    run_workflow_cluster
from repro.ff import Pipeline, SourceNode
from repro.models import mm_enzyme_network
from repro.pipeline import WorkflowConfig, run_workflow
from repro.pipeline.builder import analysis_stages, execute_workflow
from repro.service.fleet import SharedFleet
from repro.sim.alignment import TrajectoryAligner
from repro.sim.engine import run_quantum
from repro.sim.task import make_batch_tasks, make_tasks

#: quantum < sample_every: (quantum, sample_every, t_end).  0.3 does not
#: divide 0.5, and t_end = 3.1 is off the grid, so every trajectory ends
#: with an empty done marker; the 0.1 grain chains five quanta a sample.
GRAINS = {"q0.3-tend-off-grid": (0.3, 0.5, 3.1),
          "q0.1-tend-on-grid": (0.1, 0.5, 3.0)}


def config(grain, **overrides):
    quantum, sample_every, t_end = GRAINS[grain]
    base = dict(n_simulations=4, t_end=t_end, quantum=quantum,
                sample_every=sample_every, engine="flat", n_sim_workers=2,
                window_size=3, seed=5, trace=True)
    base.update(overrides)
    return WorkflowConfig(**base)


class HandLoop:
    """The per-quantum reference: every task advanced by one
    ``task.run_quantum()`` at a time, every item with a sample (or a
    done marker) aligned and windowed by the workflow's own stages."""

    def __init__(self, model, cfg: WorkflowConfig):
        tasks = make_tasks(model, cfg.n_simulations, cfg.t_end, cfg.quantum,
                           cfg.sample_every, seed=cfg.seed,
                           engine=cfg.engine)
        self.quanta = self.samples = self.empty_done = 0
        items = []
        for task in tasks:
            while not task.done:
                result = task.run_quantum()
                self.quanta += 1
                self.samples += len(result)
                if len(result) or result.done:
                    self.empty_done += not len(result)
                    items.append(result)
        self.items = len(items)
        workflow = Pipeline(
            [SourceNode(items), TrajectoryAligner(cfg.n_simulations)]
            + analysis_stages(cfg))
        self.windows, _ = execute_workflow(workflow, cfg)


@pytest.fixture(scope="module")
def enzyme():
    """``enzyme_small``, shared by the module's cached references."""
    return mm_enzyme_network(enzyme0=10, substrate0=50)


@pytest.fixture(scope="module", params=sorted(GRAINS))
def grain(request):
    return request.param


@pytest.fixture(scope="module")
def reference(enzyme, grain):
    return HandLoop(enzyme, config(grain))


@pytest.fixture(scope="module")
def fine_reference(enzyme):
    return HandLoop(enzyme, config("q0.1-tend-on-grid"))


class TestHandLoop:
    def test_the_grains_chain(self, reference, grain):
        """Most quanta yield no sample, and one item per grid point per
        trajectory (plus the markers) is what a chain ships."""
        cfg = config(grain)
        n_grid = int(round(cfg.t_end / cfg.sample_every)) + 1
        assert reference.samples == cfg.n_simulations * n_grid
        assert reference.items \
            == reference.samples + reference.empty_done
        assert reference.empty_done \
            == (cfg.n_simulations if grain.endswith("off-grid") else 0)
        assert reference.quanta > reference.items


class TestIdentity:
    @pytest.mark.parametrize("backend", ["sequential", "threads",
                                         "processes", "cluster"])
    def test_backend_equals_the_hand_loop(self, enzyme, grain, reference,
                                          backend):
        result = run_workflow(enzyme, config(grain, backend=backend))
        assert result.windows == reference.windows
        counters = result.trace_report.counters
        pushed = {c["name"]: c["pushed"]
                  for c in result.trace_report.to_dict()["channels"]}
        # one stream item (and one feedback hop) per dispatch
        assert pushed["sim-farm.merge"] == reference.items
        assert counters["sim.quanta_dispatched"] == reference.items
        # quanta run, not dispatches
        assert counters["sim.quanta"] == reference.quanta
        if backend in ("processes", "cluster"):
            assert counters["net.tasks_dispatched"] \
                == counters["net.results_received"] == reference.items

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_fleet_tenant_equals_the_hand_loop(self, enzyme, grain,
                                               reference, backend):
        fleet = SharedFleet(2, backend=backend).start()
        try:
            client = fleet.client("tenant")
            result = run_workflow(enzyme, config(grain), pool=client)
            client.close()
            stats = fleet.stats()
        finally:
            fleet.close()
        assert result.windows == reference.windows
        assert result.trace_report.counters["sim.quanta"] \
            == reference.quanta
        assert stats["quanta_dispatched"] == reference.items


class TestReplay:
    @pytest.mark.parametrize("after", [1, 7, 19])
    def test_killed_worker_replays_the_whole_chain(self, enzyme,
                                                   fine_reference, after):
        """A replayed dispatch re-runs its chain from the checkpoint
        taken before its first quantum: the run still ends with the
        hand loop's windows, and every quantum is counted once."""
        chaos = KillWorkerAfter(n_results=after, worker_id=0)
        result = run_workflow_cluster(
            enzyme, config("q0.1-tend-on-grid", backend="processes"),
            fault_hook=chaos)
        assert chaos.fired and chaos.master.workers_failed == 1
        assert result.windows == fine_reference.windows
        assert result.trace_report.counters["sim.quanta"] \
            == fine_reference.quanta


class TestTaskState:
    def test_pickle_after_a_chain_is_a_fixed_point(self, enzyme):
        """Scalar, batch exact and batch tau tasks (two fused RNG streams
        each): the first pickle of a task equals the pickle of what it
        unpickles to, and nothing generated or compiled is shipped."""
        tasks = [*make_tasks(enzyme, 1, 3.1, 0.3, 0.5, seed=3)]
        for method in ("exact", "tau"):
            tasks += make_batch_tasks(enzyme, 4, 3.1, 0.3, 0.5, seed=3,
                                      batch_size=2, method=method,
                                      n_workers=1)
        for task in tasks:
            for _ in range(3):
                task, result = run_quantum(task)
                assert len(result)
                blob = pickle.dumps(task, 5)
                loaded = pickle.loads(blob)
                assert pickle.dumps(loaded, 5) == blob
                engine = getattr(loaded, "simulator", None)
                assert (engine._loop if engine else loaded.batch._kernel) \
                    is None

    def test_checkpoint_carries_the_quanta_run(self, enzyme):
        (task,) = make_tasks(enzyme, 1, 3.1, 0.3, 0.5, seed=3)
        (alone,) = make_tasks(enzyme, 1, 3.1, 0.3, 0.5, seed=3)
        task, result = run_quantum(task)   # 0 -> 0.3: grid point 0
        task, result = run_quantum(task)   # 0.3 -> 0.6: grid point 0.5
        assert (task.quanta, result.grid_start, len(result)) == (2, 1, 1)
        task, result = run_quantum(task)   # 0.9 yields none, 1.2 does
        assert (task.quanta, result.grid_start, len(result)) == (4, 2, 1)
        for _ in range(4):
            alone.run_quantum()
        assert pickle.dumps(alone, 5) == pickle.dumps(task, 5)
        checkpoint = pickle.loads(pickle.dumps(Checkpoint.of(task), 5))
        assert (checkpoint.quanta, checkpoint.steps) == (4, task.steps)

    def test_done_task_returns_its_marker_without_a_quantum(self, enzyme):
        (task,) = make_tasks(enzyme, 1, 3.1, 0.3, 0.5, seed=3)
        while not task.done:
            task, result = run_quantum(task)
        quanta = task.quanta
        assert result.done and not len(result)  # t_end 3.1 is off grid
        task, again = run_quantum(task)
        assert again.done and task.quanta == quanta
