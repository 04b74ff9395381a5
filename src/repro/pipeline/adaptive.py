"""Analysis-driven adaptive scheduling: close the Fig. 2 feedback loop.

The paper's workflow computes online window statistics but never acts on
them -- the analysis half is a pure observer.  This module turns it into
a control signal: :class:`AdaptivePolicy` objects consume the
:class:`~repro.pipeline.steering.ProgressEvent` stream and issue
scheduling *decisions* that an :class:`AdaptiveController` (a steering
controller with policies) applies back into the simulation half through
the scheduler link every run registers at start: its
:class:`~repro.sim.scheduler.SimTaskEmitter`, the one scheduler on
every backend.  The design follows OSPREY's ``asynch_repriority`` task
queues (re-prioritise queued work from a running analysis, never kill a
task) and FastFlow's feedback-channel farms (decisions ride the
dispatch boundaries the scheduler already has: a task's next sample).

Three concrete policies:

* :class:`ConvergenceStopPolicy` -- sequential-sampling early stop: pool
  per-cut ensemble statistics into a running per-species estimate of the
  time-averaged mean, and retire the run at the first analysed window
  where every tracked species' confidence-interval half-width is below
  the threshold.  In-flight dispatches are retired when they come back
  (steering), queued ones are cancelled outright, and windows
  past the decision point are suppressed so every backend reports the
  same (bit-identical) truncated window set.
* :class:`LaggardRepriorityPolicy` -- mid-run re-prioritisation: on every
  analysed window, re-key the scheduler backlog so the trajectories
  furthest *behind* in simulated time dispatch first.  This tightens the
  fleet frontier the aligner waits on (cuts, and hence feedback, surface
  sooner) using nothing but the existing bounded in-flight windows --
  preemption by starvation, no task kill.
* :func:`run_adaptive_sweep` -- variance-proportional trajectory
  allocation across a multi-point parameter sweep: probe every point
  with the configured fleet, then grant extra trajectory tasks to
  high-variance points (proportional allocation of an extra budget)
  while convergence stop cancels each point's surplus quanta as soon as
  its pooled precision target is met.

Decisions surface in the run report as ``adapt.stops``,
``adapt.reprioritized`` and ``adapt.extra_tasks`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.analysis.stats import OnlineStats, ci_half_width
from repro.pipeline.steering import ProgressEvent, SteeringController

__all__ = [
    "StopRun", "Repriority", "AdaptivePolicy", "ConvergenceStopPolicy",
    "LaggardRepriorityPolicy", "AdaptiveController",
    "make_adaptive_controller", "task_lag_key",
    "ParameterPoint", "PointResult", "SweepResult", "run_adaptive_sweep",
]


# ----------------------------------------------------------------------
# decisions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StopRun:
    """Retire the run: windows after ``window_index`` are suppressed and
    simulation tasks retire at the end of their current dispatch."""

    window_index: int
    reason: str = ""


@dataclass(frozen=True)
class Repriority:
    """Re-order the scheduler backlog by ``key`` (ascending; smallest
    key dispatches first)."""

    key: Callable[[Any], float]
    reason: str = ""


def task_lag_key(task: Any) -> float:
    """Priority key ordering tasks by how far *behind* they are in
    simulated time (laggards first).  Works for scalar and batch tasks:
    both expose ``time``."""
    return task.time


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------

class AdaptivePolicy:
    """One feedback rule: windows in, scheduling decisions out.

    Policies run inside the controller's lock, in window order (the stat
    farm is ordered), so they may keep unguarded state.  ``reset`` is
    called when a controller is reused for a new run.
    """

    def on_window(self, event: ProgressEvent) -> Iterable[Any]:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state (default: nothing to clear)."""


class ConvergenceStopPolicy(AdaptivePolicy):
    """Sequential-sampling convergence stop; see the module docstring.

    Every cut carries the ensemble mean/variance over ``n`` trajectories;
    the policy pools them (Welford merge of per-cut moments, deduplicated
    by grid index across overlapping windows) into a running estimate of
    each species' time-averaged mean.  The pooled sample count grows with
    every new cut, so the CI half-width ``z * sqrt(var / n)`` contracts
    as the run streams -- the first window where every tracked species
    is below the threshold wins:

    * ``relative=True`` (default): converged when
      ``half_width <= threshold * max(|pooled mean|, mean_floor)``;
    * ``relative=False``: converged when ``half_width <= threshold``.

    ``species`` restricts the check to a subset of observables (default:
    all).  ``min_windows`` guards the degenerate start-up (every
    trajectory leaves the same initial state, so the first cuts have
    near-zero variance).  Pass ``carry`` to continue pooling from a
    previous fleet's accumulators (the sweep's phase-2 top-up runs do).
    """

    def __init__(self, threshold: float, *, relative: bool = True,
                 species: Optional[Sequence[int]] = None,
                 confidence: float = 0.95, min_windows: int = 2,
                 mean_floor: float = 1e-12,
                 carry: Optional[dict[int, OnlineStats]] = None):
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}")
        if min_windows < 1:
            raise ValueError(
                f"min_windows must be >= 1, got {min_windows}")
        self.threshold = threshold
        self.relative = relative
        self.species = None if species is None else tuple(species)
        self.confidence = confidence
        self.min_windows = min_windows
        self.mean_floor = mean_floor
        self._carry = dict(carry) if carry else {}
        self.pooled: dict[int, OnlineStats] = {
            s: OnlineStats().merge(acc) for s, acc in self._carry.items()}
        self._merged_through = 0   # grid indices below this are pooled
        self.stopped_at: Optional[int] = None

    def reset(self) -> None:
        self.pooled = {
            s: OnlineStats().merge(acc) for s, acc in self._carry.items()}
        self._merged_through = 0
        self.stopped_at = None

    # -- state inspection ------------------------------------------------
    def half_widths(self) -> dict[int, float]:
        """Current per-species CI half-width of the pooled mean."""
        return {s: ci_half_width(acc.variance, acc.n, self.confidence)
                for s, acc in self.pooled.items()}

    def converged(self) -> bool:
        if not self.pooled:
            return False
        tracked = (self.species if self.species is not None
                   else tuple(self.pooled))
        for s in tracked:
            acc = self.pooled.get(s)
            if acc is None or acc.n < 2:
                return False
            hw = ci_half_width(acc.variance, acc.n, self.confidence)
            target = (self.threshold * max(abs(acc.mean), self.mean_floor)
                      if self.relative else self.threshold)
            if math.isnan(hw) or hw > target:
                return False
        return True

    # -- the policy ------------------------------------------------------
    def on_window(self, event: ProgressEvent) -> Iterable[Any]:
        if self.stopped_at is not None:
            return ()
        for cut in event.statistics.cuts:
            if cut.grid_index < self._merged_through:
                continue  # overlapping windows share cuts: pool once
            for s in range(len(cut.mean)):
                acc = self.pooled.setdefault(s, OnlineStats())
                acc.merge(OnlineStats.from_moments(
                    cut.n_trajectories, cut.mean[s], cut.variance[s],
                    cut.minimum[s], cut.maximum[s]))
            self._merged_through = cut.grid_index + 1
        if event.windows_seen >= self.min_windows and self.converged():
            self.stopped_at = event.window_index
            hw = self.half_widths()
            worst = max(hw, key=lambda s: hw[s])
            return [StopRun(
                event.window_index,
                reason=(f"all tracked species within "
                        f"{'relative ' if self.relative else ''}CI "
                        f"threshold {self.threshold:g} "
                        f"(worst: species {worst} hw={hw[worst]:.4g})"))]
        return ()


class LaggardRepriorityPolicy(AdaptivePolicy):
    """Re-key the scheduler backlog laggards-first on every ``every``-th
    analysed window (see the module docstring)."""

    def __init__(self, every: int = 1,
                 key: Callable[[Any], float] = task_lag_key):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.key = key
        self._windows = 0

    def reset(self) -> None:
        self._windows = 0

    def on_window(self, event: ProgressEvent) -> Iterable[Any]:
        self._windows += 1
        if self._windows % self.every == 0:
            return [Repriority(self.key, reason="laggards first")]
        return ()


# ----------------------------------------------------------------------
# the controller
# ----------------------------------------------------------------------

class AdaptiveController(SteeringController):
    """A steering controller that runs policies on every analysed window
    and applies their decisions.

    Behaves exactly like :class:`SteeringController` for observation and
    manual stop; additionally, after delivering each progress event, the
    attached policies run (inside the same lock, so notify + policy +
    decision are one atomic step) and decisions are applied:

    * :class:`StopRun` -- requests steering stop, records the decision
      window, and **suppresses every later window** so the run's output
      is the deterministic prefix ``0 .. stop_window`` on every backend;
    * :class:`Repriority` -- forwards the new key to the scheduler link
      registered by the backend (``repriority(key)``), counting how many
      queued tasks were re-ordered.

    Applied decisions surface as trace counters (``adapt.*``), flushed
    into the run report by the pipeline's progress node.
    """

    def __init__(self, policies: Sequence[AdaptivePolicy],
                 on_progress: Optional[Callable[[ProgressEvent],
                                                None]] = None):
        super().__init__(on_progress=on_progress)
        self.policies = list(policies)
        self.stop_window: Optional[int] = None
        self.stop_reason = ""
        self._counters: list[tuple[str, float]] = []

    def reset(self) -> None:
        """Prepare the controller for a fresh run (policies included)."""
        with self._lock:
            self._stop.clear()
            self.windows_seen = 0
            self.latest = None
            self.stop_window = None
            self.stop_reason = ""
            self._counters = []
            for policy in self.policies:
                policy.reset()

    def _notify(self, stats) -> bool:
        with self._lock:
            if (self.stop_window is not None
                    and stats.window_index > self.stop_window):
                # the decision already fired: suppress trailing windows
                # produced by quanta that were in flight at stop time, so
                # the emitted window set is backend-independent
                return False
            self.windows_seen += 1
            self.latest = stats
            event = ProgressEvent(
                window_index=stats.window_index,
                start_time=stats.start_time,
                end_time=stats.end_time,
                statistics=stats,
                windows_seen=self.windows_seen)
            if self._on_progress is not None:
                self._on_progress(event)
            for policy in self.policies:
                for decision in policy.on_window(event):
                    self._apply(decision)
            return True

    def _apply(self, decision: Any) -> None:
        if isinstance(decision, StopRun):
            if self.stop_window is None:
                self.stop_window = decision.window_index
                self.stop_reason = decision.reason
                self._counters.append(("adapt.stops", 1))
                self.stop()
        elif isinstance(decision, Repriority):
            scheduler = self._scheduler
            if scheduler is not None and hasattr(scheduler, "repriority"):
                moved = scheduler.repriority(decision.key)
                if moved:
                    self._counters.append(("adapt.reprioritized", moved))
        else:
            raise TypeError(
                f"unknown adaptive decision {type(decision).__name__}")

    def drain_counters(self) -> list[tuple[str, float]]:
        with self._lock:
            drained, self._counters = self._counters, []
        return drained


def make_adaptive_controller(config, on_progress=None
                             ) -> Optional[AdaptiveController]:
    """Build the controller matching a config's ``adaptive_*`` knobs, or
    None when the config requests no adaptive behaviour."""
    policies: list[AdaptivePolicy] = []
    if config.adaptive_ci is not None:
        policies.append(ConvergenceStopPolicy(
            config.adaptive_ci,
            relative=config.adaptive_relative,
            species=config.adaptive_species,
            min_windows=config.adaptive_min_windows))
    if config.adaptive_repriority:
        policies.append(LaggardRepriorityPolicy())
    if not policies:
        return None
    return AdaptiveController(policies, on_progress=on_progress)


# ----------------------------------------------------------------------
# variance-proportional sweep allocation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterPoint:
    """One point of a parameter sweep: a name and the model to run."""

    name: str
    model: Any


@dataclass
class PointResult:
    """Everything the sweep learned about one parameter point."""

    point: ParameterPoint
    #: the probe-phase workflow result, then any top-up results
    runs: list = field(default_factory=list)
    n_trajectories: int = 0
    extra_granted: int = 0
    #: dispatches (chains of quanta), the ``sim.quanta_dispatched`` sum
    quanta_dispatched: float = 0.0
    converged: bool = False
    stop_window: Optional[int] = None
    #: pooled per-species estimate across all fleets of this point
    pooled: dict[int, OnlineStats] = field(default_factory=dict)
    half_widths: dict[int, float] = field(default_factory=dict)

    @property
    def windows(self) -> list:
        return [w for run in self.runs for w in run.windows]


@dataclass
class SweepResult:
    points: list[PointResult]
    extra_budget: int
    extra_allocated: dict[str, int]
    total_quanta: float


def _variance_score(policy: ConvergenceStopPolicy) -> float:
    """Allocation weight of one point: its worst tracked-species variance
    (relative mode normalises by the squared mean, so species on
    different scales compete fairly)."""
    tracked = (policy.species if policy.species is not None
               else tuple(policy.pooled))
    score = 0.0
    for s in tracked:
        acc = policy.pooled.get(s)
        if acc is None or acc.n == 0:
            continue
        var = acc.variance
        if policy.relative:
            denom = max(abs(acc.mean), policy.mean_floor) ** 2
            var = var / denom
        score = max(score, var)
    return score


def run_adaptive_sweep(points: Sequence[ParameterPoint], config, *,
                       extra_budget: int,
                       threshold: Optional[float] = None,
                       tracer=None) -> SweepResult:
    """Variance-proportional trajectory allocation over a parameter sweep.

    Phase 1 (probe): every point runs the configured workflow
    (``config.n_simulations`` trajectories) under a
    :class:`ConvergenceStopPolicy` -- points whose statistics already
    converge retire their surplus quanta at dispatch boundaries.  Phase 2
    (top-up): ``extra_budget`` additional trajectory tasks are granted to
    the still-unconverged points proportionally to their pooled variance
    score; each top-up fleet continues pooling from the probe's
    accumulators (``carry``), so its convergence stop cancels the
    point's remaining quanta as soon as the *combined* precision target
    is met.  Converged points are granted nothing -- their surplus is
    the budget other points consume.

    ``threshold`` defaults to ``config.adaptive_ci``; seeds of top-up
    fleets are offset past the probe fleet so trajectories stay
    independent and reproducible.  Granted tasks surface as the
    ``adapt.extra_tasks`` counter on ``tracer`` (when given) and in the
    returned :class:`SweepResult`.
    """
    from repro.pipeline.builder import run_workflow

    if extra_budget < 0:
        raise ValueError(f"extra_budget must be >= 0, got {extra_budget}")
    threshold = threshold if threshold is not None else config.adaptive_ci
    if threshold is None:
        raise ValueError(
            "run_adaptive_sweep needs a CI threshold (threshold= or "
            "config.adaptive_ci)")

    def quanta_of(result) -> float:
        report = result.trace_report
        if report is None:
            return 0.0
        return report.counters.get("sim.quanta_dispatched", 0.0)

    def make_policy(carry=None) -> ConvergenceStopPolicy:
        return ConvergenceStopPolicy(
            threshold,
            relative=config.adaptive_relative,
            species=config.adaptive_species,
            min_windows=config.adaptive_min_windows,
            carry=carry)

    probe_cfg = replace(config, adaptive_ci=None, trace=True)
    outcomes: list[PointResult] = []
    policies: list[ConvergenceStopPolicy] = []
    for point in points:
        policy = make_policy()
        controller = AdaptiveController([policy])
        result = run_workflow(point.model, probe_cfg,
                              controller=controller)
        outcome = PointResult(
            point=point, runs=[result],
            n_trajectories=probe_cfg.n_simulations,
            quanta_dispatched=quanta_of(result),
            converged=policy.converged(),
            stop_window=controller.stop_window,
            pooled=policy.pooled,
            half_widths=policy.half_widths())
        outcomes.append(outcome)
        policies.append(policy)

    # -- phase 2: grant the extra budget proportionally to variance -----
    scores = [0.0 if policy.converged() else _variance_score(policy)
              for policy in policies]
    total_score = sum(scores)
    allocated: dict[str, int] = {}
    if extra_budget and total_score > 0:
        shares = [extra_budget * s / total_score for s in scores]
        grants = [int(share) for share in shares]
        # hand out the rounding remainder largest-fraction-first
        remainder = extra_budget - sum(grants)
        order = sorted(range(len(points)),
                       key=lambda i: shares[i] - grants[i], reverse=True)
        for i in order[:remainder]:
            grants[i] += 1
        for point, outcome, policy, grant in zip(points, outcomes,
                                                 policies, grants):
            if grant < 1:
                continue
            allocated[point.name] = grant
            if tracer is not None:
                tracer.incr("adapt.extra_tasks", grant)
            topup_policy = make_policy(carry=policy.pooled)
            controller = AdaptiveController([topup_policy])
            topup_cfg = replace(
                probe_cfg, n_simulations=grant,
                seed=(None if config.seed is None
                      else config.seed + config.n_simulations))
            result = run_workflow(point.model, topup_cfg,
                                  controller=controller)
            outcome.runs.append(result)
            outcome.n_trajectories += grant
            outcome.extra_granted = grant
            outcome.quanta_dispatched += quanta_of(result)
            outcome.converged = topup_policy.converged()
            outcome.stop_window = controller.stop_window
            outcome.pooled = topup_policy.pooled
            outcome.half_widths = topup_policy.half_widths()

    return SweepResult(
        points=outcomes,
        extra_budget=extra_budget,
        extra_allocated=allocated,
        total_quanta=sum(o.quanta_dispatched for o in outcomes))
