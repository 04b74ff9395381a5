"""The adaptive feedback loop: policies, decision application, window-set
determinism across backends, and variance-proportional sweep allocation."""

import math

import pytest

from repro.analysis.engines import WindowStatistics
from repro.analysis.stats import CutStatistics, OnlineStats
from repro.ff.trace import Tracer
from repro.pipeline.adaptive import (AdaptiveController,
                                     ConvergenceStopPolicy,
                                     LaggardRepriorityPolicy, ParameterPoint,
                                     Repriority, StopRun,
                                     make_adaptive_controller,
                                     run_adaptive_sweep, task_lag_key)
from repro.pipeline.builder import run_workflow
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.steering import ProgressEvent

ADAPTIVE = dict(n_simulations=8, t_end=80.0, sample_every=0.5, quantum=2.0,
                window_size=10, seed=3, trace=True,
                adaptive_ci=0.05, adaptive_min_windows=4)


def _cut(grid_index, n, mean, variance):
    return CutStatistics(grid_index=grid_index, time=0.5 * grid_index,
                         n_trajectories=n, mean=(mean,),
                         variance=(variance,), minimum=(mean,),
                         maximum=(mean,), median=(mean,))


def _event(index, cuts, windows_seen=None):
    stats = WindowStatistics(window_index=index, start_time=0.0,
                             end_time=1.0, cuts=cuts)
    return ProgressEvent(window_index=index, start_time=0.0, end_time=1.0,
                         statistics=stats,
                         windows_seen=windows_seen or index + 1)


class TestConvergenceStopPolicy:
    def test_pools_moments_and_stops_when_tight(self):
        policy = ConvergenceStopPolicy(0.05, min_windows=1)
        # high-variance first window: no stop
        assert list(policy.on_window(_event(
            0, [_cut(g, 10, 100.0, 1e6) for g in range(5)]))) == []
        # many tight cuts: pooled hw collapses below 5% of the mean
        decisions = list(policy.on_window(_event(
            1, [_cut(g, 400, 100.0, 1.0) for g in range(5, 1000)])))
        assert len(decisions) == 1
        assert isinstance(decisions[0], StopRun)
        assert decisions[0].window_index == 1
        assert policy.converged()

    def test_dedupes_overlapping_cuts_by_grid_index(self):
        policy = ConvergenceStopPolicy(0.05)
        cuts = [_cut(g, 4, 10.0, 2.0) for g in range(6)]
        policy.on_window(_event(0, cuts))
        n_before = policy.pooled[0].n
        # the overlapping window shares cuts 2..5 and adds 6..7
        policy.on_window(_event(
            1, cuts[2:] + [_cut(6, 4, 10.0, 2.0), _cut(7, 4, 10.0, 2.0)]))
        assert policy.pooled[0].n == n_before + 2 * 4

    def test_min_windows_guards_early_stop(self):
        policy = ConvergenceStopPolicy(0.5, min_windows=3)
        tight = [_cut(g, 500, 50.0, 0.1) for g in range(30)]
        assert list(policy.on_window(_event(0, tight))) == []
        assert list(policy.on_window(_event(1, tight[:1]))) == []
        assert len(list(policy.on_window(_event(2, tight[:1])))) == 1

    def test_species_subset(self):
        policy = ConvergenceStopPolicy(0.05, species=(0,), min_windows=1)
        cuts = [CutStatistics(grid_index=g, time=0.0, n_trajectories=200,
                              mean=(100.0, 1e-6),
                              variance=(0.5, 1e6),
                              minimum=(0.0, 0.0), maximum=(0.0, 0.0),
                              median=(0.0, 0.0))
                for g in range(200)]
        # species 1 is wildly unconverged, but only species 0 is tracked
        assert len(list(policy.on_window(_event(0, cuts)))) == 1

    def test_absolute_threshold(self):
        policy = ConvergenceStopPolicy(1e-4, relative=False, min_windows=1)
        cuts = [_cut(g, 100, 0.5, 2.0) for g in range(50)]
        assert list(policy.on_window(_event(0, cuts))) == []
        assert not policy.converged()

    def test_carry_continues_pooling(self):
        first = ConvergenceStopPolicy(0.05)
        first.on_window(_event(0, [_cut(g, 8, 10.0, 4.0)
                                   for g in range(10)]))
        resumed = ConvergenceStopPolicy(0.05, carry=first.pooled)
        assert resumed.pooled[0].n == first.pooled[0].n
        resumed.on_window(_event(0, [_cut(g, 8, 10.0, 4.0)
                                     for g in range(10)]))
        assert resumed.pooled[0].n == 2 * first.pooled[0].n
        # the donor's accumulators are not aliased
        assert first.pooled[0].n == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceStopPolicy(0.0)
        with pytest.raises(ValueError):
            ConvergenceStopPolicy(0.1, confidence=1.0)
        with pytest.raises(ValueError):
            ConvergenceStopPolicy(0.1, min_windows=0)


class TestLaggardRepriorityPolicy:
    def test_emits_every_nth_window(self):
        policy = LaggardRepriorityPolicy(every=2)
        emitted = [len(list(policy.on_window(_event(i, []))))
                   for i in range(6)]
        assert emitted == [0, 1, 0, 1, 0, 1]

    def test_key_orders_laggards_first(self):
        class T:
            def __init__(self, time):
                self.time = time
        times = [5.0, 1.0, 3.0]
        assert sorted(times, key=lambda t: t) == [
            t.time for t in sorted((T(x) for x in times), key=task_lag_key)]


class _FakeScheduler:
    def __init__(self, moved=3):
        self.moved = moved
        self.keys = []

    def repriority(self, key):
        self.keys.append(key)
        return self.moved


class TestAdaptiveController:
    def test_stop_decision_sets_window_and_counters(self):
        controller = AdaptiveController(
            [ConvergenceStopPolicy(0.05, min_windows=1)])
        tight = [_cut(g, 400, 100.0, 1.0) for g in range(500)]
        assert controller._notify(_event(0, tight).statistics) is True
        assert controller.stop_window == 0
        assert controller.stop_requested
        assert ("adapt.stops", 1) in controller.drain_counters()
        assert controller.drain_counters() == []  # drained

    def test_truncates_windows_after_stop(self):
        controller = AdaptiveController(
            [ConvergenceStopPolicy(0.05, min_windows=1)])
        tight = [_cut(g, 400, 100.0, 1.0) for g in range(500)]
        assert controller._notify(_event(0, tight).statistics) is True
        # straggler windows produced by in-flight quanta are vetoed
        assert controller._notify(_event(1, tight[:1]).statistics) is False
        assert controller._notify(_event(7, []).statistics) is False
        assert controller.windows_seen == 1

    def test_repriority_decision_reaches_scheduler(self):
        controller = AdaptiveController([LaggardRepriorityPolicy()])
        scheduler = _FakeScheduler(moved=5)
        controller.attach_scheduler(scheduler)
        controller._notify(_event(0, []).statistics)
        assert len(scheduler.keys) == 1
        assert ("adapt.reprioritized", 5) in controller.drain_counters()

    def test_repriority_without_scheduler_is_noop(self):
        controller = AdaptiveController([LaggardRepriorityPolicy()])
        controller._notify(_event(0, []).statistics)
        assert controller.drain_counters() == []

    def test_unknown_decision_raises(self):
        class Weird(LaggardRepriorityPolicy):
            def on_window(self, event):
                return ["nonsense"]
        controller = AdaptiveController([Weird()])
        with pytest.raises(TypeError):
            controller._notify(_event(0, []).statistics)

    def test_reset_clears_run_state(self):
        controller = AdaptiveController(
            [ConvergenceStopPolicy(0.05, min_windows=1)])
        tight = [_cut(g, 400, 100.0, 1.0) for g in range(500)]
        controller._notify(_event(0, tight).statistics)
        controller.reset()
        assert controller.stop_window is None
        assert not controller.stop_requested
        assert controller.windows_seen == 0
        assert controller.policies[0].pooled == {}

    def test_factory_from_config(self):
        cfg = WorkflowConfig(adaptive_ci=0.1, adaptive_repriority=True)
        controller = make_adaptive_controller(cfg)
        kinds = {type(p) for p in controller.policies}
        assert kinds == {ConvergenceStopPolicy, LaggardRepriorityPolicy}
        assert make_adaptive_controller(WorkflowConfig()) is None


class TestConvergenceStopEndToEnd:
    def test_saves_quanta_and_reports_counters(self, neurospora_small):
        cfg = WorkflowConfig(**ADAPTIVE, backend="sequential")
        controller = make_adaptive_controller(cfg)
        result = run_workflow(neurospora_small, cfg, controller=controller)
        counters = result.trace_report.counters
        full = cfg.n_simulations * cfg.n_quanta
        assert controller.stop_window is not None
        assert counters["sim.quanta_dispatched"] < full
        assert counters["adapt.stops"] == 1
        assert counters["sim.tasks_retired"] == cfg.n_simulations
        assert counters.get("sim.tasks_completed", 0) == 0
        # the emitted set is the deterministic prefix 0..stop_window
        assert [w.window_index for w in result.windows] == list(
            range(controller.stop_window + 1))

    def test_auto_controller_from_config(self, neurospora_small):
        """run_workflow builds the controller itself from the adaptive
        knobs when none is passed."""
        cfg = WorkflowConfig(**ADAPTIVE, backend="sequential")
        result = run_workflow(neurospora_small, cfg)
        counters = result.trace_report.counters
        assert counters["adapt.stops"] == 1
        assert counters["sim.quanta_dispatched"] < (
            cfg.n_simulations * cfg.n_quanta)


@pytest.mark.parametrize("backend",
                         ("sequential", "threads", "processes", "cluster"))
class TestCrossBackendDeterminism:
    """Same seed + same threshold must retire a bit-identical window set
    on every backend, regardless of how many quanta were in flight when
    the stop decision landed."""

    REFERENCE = {}

    def _signature(self, result):
        return [(w.window_index, w.start_time, w.end_time,
                 tuple((c.grid_index, c.time, c.mean, c.variance)
                       for c in w.cuts),
                 w.window_mean, w.ci_half_width)
                for w in result.windows]

    def test_identical_window_set(self, neurospora_small, backend):
        from repro.sim.scheduler import SimTaskEmitter
        cfg = WorkflowConfig(**ADAPTIVE, backend=backend)
        controller = make_adaptive_controller(cfg)
        result = run_workflow(neurospora_small, cfg, controller=controller)
        # one scheduler on every backend: the farm's emitter
        assert isinstance(controller.scheduler, SimTaskEmitter)
        assert controller.stop_window is not None
        signature = (controller.stop_window, self._signature(result))
        reference = self.REFERENCE.setdefault("signature", signature)
        assert signature == reference


class TestRepriorityEndToEnd:
    def test_backlog_reordering_preserves_results(self, neurospora_small,
                                                  monkeypatch):
        # whether a re-key actually *moves* backlog entries depends on
        # worker timing (the heap may already be laggards-first), so the
        # deterministic claims are: the policy re-keys the scheduler on
        # every analysed window, and the results never change.  Actual
        # reordering is covered by tests/sim/test_adaptive_scheduler.py.
        from repro.sim.scheduler import SimTaskEmitter
        rekeys = []
        orig = SimTaskEmitter.repriority

        def spy(self, key):
            moved = orig(self, key)
            rekeys.append(moved)
            return moved

        monkeypatch.setattr(SimTaskEmitter, "repriority", spy)
        base = dict(n_simulations=16, t_end=60.0, sample_every=0.5,
                    quantum=2.0, window_size=10, seed=3)
        plain = run_workflow(neurospora_small, WorkflowConfig(**base))
        extract = lambda r: [(w.window_index,
                              tuple(c.mean for c in w.cuts))
                             for w in r.windows]
        # one implementation of the hook on every backend
        for backend in ("threads", "processes", "cluster"):
            rekeys.clear()
            cfg = WorkflowConfig(**base, adaptive_repriority=True,
                                 trace=True, backend=backend)
            controller = make_adaptive_controller(cfg)
            adaptive = run_workflow(neurospora_small, cfg,
                                    controller=controller)
            assert isinstance(controller.scheduler, SimTaskEmitter)
            assert extract(plain) == extract(adaptive)
            assert rekeys, "the controller never re-keyed the scheduler"
            counters = adaptive.trace_report.counters
            assert counters.get("adapt.reprioritized", 0) == sum(rekeys)


    def test_batch_engine_keeps_its_backlog(self, neurospora_small):
        """Block fusion would leave one task per worker and nothing in
        the backlog to re-key; a re-prioritising run keeps one task per
        seed block instead.  The sequential backend's schedule is
        deterministic, so the move count is too."""
        cfg = WorkflowConfig(n_simulations=32, t_end=20.0, sample_every=0.5,
                             quantum=2.0, window_size=10, seed=3,
                             engine="batch", batch_size=2, n_sim_workers=2,
                             backend="sequential", trace=True)
        fused = run_workflow(neurospora_small, cfg).trace_report.counters
        assert fused["sim.tasks_generated"] == 2
        cfg.adaptive_repriority = True
        counters = run_workflow(neurospora_small, cfg).trace_report.counters
        assert counters["sim.tasks_generated"] == counters["sim.seed_blocks"]
        assert counters["adapt.reprioritized"] > 0


class TestAdaptiveSweep:
    def _points(self, neurospora_small):
        from repro.models import neurospora_network
        return [ParameterPoint("small", neurospora_small),
                ParameterPoint("large", neurospora_network(omega=40))]

    def test_extra_budget_goes_to_unconverged_points(self, neurospora_small):
        cfg = WorkflowConfig(n_simulations=4, t_end=40.0, sample_every=0.5,
                             quantum=2.0, window_size=10, seed=3,
                             adaptive_ci=0.04, adaptive_min_windows=3)
        tracer = Tracer()
        sweep = run_adaptive_sweep(self._points(neurospora_small), cfg,
                                   extra_budget=6, tracer=tracer)
        assert sum(sweep.extra_allocated.values()) <= 6
        assert sweep.total_quanta > 0
        granted = tracer.report().counters.get("adapt.extra_tasks", 0)
        assert granted == sum(sweep.extra_allocated.values())
        for outcome in sweep.points:
            assert outcome.n_trajectories >= cfg.n_simulations
            assert outcome.pooled  # pooled stats survive the phases
            hw = outcome.half_widths
            assert all(not math.isnan(v) for v in hw.values())
            if outcome.point.name in sweep.extra_allocated:
                assert outcome.extra_granted > 0

    def test_converged_points_get_nothing(self, neurospora_small):
        # a sloppy threshold converges both points in the probe phase
        cfg = WorkflowConfig(n_simulations=4, t_end=40.0, sample_every=0.5,
                             quantum=2.0, window_size=10, seed=3,
                             adaptive_ci=0.5, adaptive_min_windows=2)
        sweep = run_adaptive_sweep(self._points(neurospora_small), cfg,
                                   extra_budget=10)
        assert sweep.extra_allocated == {}
        assert all(p.converged for p in sweep.points)
        assert all(p.extra_granted == 0 for p in sweep.points)

    def test_requires_threshold(self, neurospora_small):
        cfg = WorkflowConfig(n_simulations=2, t_end=10.0)
        with pytest.raises(ValueError):
            run_adaptive_sweep([ParameterPoint("p", neurospora_small)],
                               cfg, extra_budget=2)

    def test_rejects_negative_budget(self, neurospora_small):
        cfg = WorkflowConfig(n_simulations=2, t_end=10.0, adaptive_ci=0.1)
        with pytest.raises(ValueError):
            run_adaptive_sweep([ParameterPoint("p", neurospora_small)],
                               cfg, extra_budget=-1)


class TestConfigValidation:
    def test_adaptive_knobs(self):
        with pytest.raises(ValueError):
            WorkflowConfig(adaptive_ci=0.0)
        with pytest.raises(ValueError):
            WorkflowConfig(adaptive_min_windows=0)
        assert WorkflowConfig().adaptive is False
        assert WorkflowConfig(adaptive_ci=0.1).adaptive is True
        assert WorkflowConfig(adaptive_repriority=True).adaptive is True
