"""Command-line front-end: ``python -m repro.pipeline.main``.

The textual counterpart of the paper's GUI: pick a model, run the
simulation-analysis workflow, watch windows stream in, and get a final
summary (including the oscillation-period estimate for oscillatory
models).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.peaks import ensemble_period
from repro.cwc.kernels import KernelUnavailable
from repro.ff.errors import NodeError
from repro.models import (
    lotka_volterra_network,
    mm_enzyme_network,
    neurospora_cwc_model,
    neurospora_network,
    toggle_switch_network,
)
from repro.pipeline.builder import run_workflow
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.steering import ProgressEvent, SteeringController

_MODELS = {
    "neurospora": lambda omega: neurospora_network(omega=omega),
    "neurospora-cwc": lambda omega: neurospora_cwc_model(omega=omega),
    "lotka-volterra": lambda omega: lotka_volterra_network(omega=omega),
    "toggle": lambda omega: toggle_switch_network(omega=omega),
    "enzyme": lambda omega: mm_enzyme_network(omega=omega),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.pipeline",
        description="CWC simulation-analysis workflow runner")
    parser.add_argument("--model", choices=sorted(_MODELS), default="neurospora")
    parser.add_argument("--omega", type=float, default=100.0,
                        help="system size (molecules per concentration unit)")
    parser.add_argument("--simulations", type=int, default=16)
    parser.add_argument("--t-end", type=float, default=96.0)
    parser.add_argument("--sample-every", type=float, default=0.5)
    parser.add_argument("--quantum", type=float, default=2.0)
    parser.add_argument("--sim-workers", type=int, default=4)
    parser.add_argument("--stat-workers", type=int, default=1)
    parser.add_argument("--window", type=int, default=20)
    parser.add_argument("--slide", type=int, default=None)
    parser.add_argument("--kmeans", type=int, default=None)
    parser.add_argument("--filter-width", type=int, default=None)
    parser.add_argument("--histogram", type=int, default=None,
                        metavar="BINS",
                        help="per-observable population histograms")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", choices=("auto", "flat", "cwc", "batch"),
                        default="auto")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="trajectories per RNG stream (--engine "
                             "batch); the runtime may advance several "
                             "streams in one lockstep task")
    parser.add_argument("--engine-kernel",
                        choices=("numpy", "numba", "cupy"),
                        default="numpy",
                        help="inner-loop kernel of the batch engine: "
                             "numpy (reference), numba (JIT, "
                             "bit-identical to numpy) or cupy (real "
                             "GPU); numba/cupy need the matching "
                             "optional extra installed")
    parser.add_argument("--method",
                        choices=("exact", "first", "tau", "hybrid"),
                        default="exact",
                        help="stepping algorithm: exact (direct-method "
                             "SSA), first (first-reaction method, "
                             "scalar engines only), tau (tau-leaping "
                             "with CGP step control) or hybrid "
                             "(tau-leaping that keeps small-population "
                             "rows on exact SSA); tau/hybrid trade "
                             "bit-reproducibility for an order-of-"
                             "magnitude speedup at large omega")
    parser.add_argument("--backend",
                        choices=("threads", "sequential", "processes",
                                 "cluster"),
                        default="threads",
                        help="runtime: in-process executors (threads/"
                             "sequential) or the TCP master/worker "
                             "runtime with worker processes on this "
                             "host (processes and cluster name the "
                             "same thing)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (--backend processes/"
                             "cluster: overrides --sim-workers there)")
    parser.add_argument("--inflight", type=int, default=2,
                        help="bounded in-flight tasks per worker process "
                             "(backpressure window)")
    parser.add_argument("--adaptive", metavar="SPEC", default=None,
                        help="convergence-stop policy, e.g. 'ci:0.05' "
                             "(retire the run once every species' pooled "
                             "95%% CI half-width is within 5%% of its "
                             "mean) or 'ci-abs:1.5' (absolute half-width)")
    parser.add_argument("--adaptive-repriority", action="store_true",
                        help="re-key the simulation backlog laggards-"
                             "first on every analysed window (adaptive "
                             "mid-run re-prioritisation)")
    parser.add_argument("--sweep", metavar="SPEC_JSON", default=None,
                        help="run a parameter sweep instead of a single "
                             "workflow: path to a JSON spec with either "
                             "a 'points' list (reaction -> rate "
                             "overrides per point) or a 'grid' mapping "
                             "(reaction -> list of values, cartesian "
                             "product), plus optional n_trajectories / "
                             "seed / points_per_block")
    parser.add_argument("--sweep-store", metavar="DIR", default=None,
                        help="persist the sweep's per-point summary "
                             "matrices as a mmap-able columnar store "
                             "(one (point, cut) .npy per observable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-window progress lines")
    parser.add_argument("--trace", action="store_true",
                        help="record runtime metrics and print the run "
                             "report (per-node service times, channel "
                             "occupancy, bottleneck diagnosis)")
    parser.add_argument("--trace-report", metavar="PATH", default=None,
                        help="write the JSON run report to PATH "
                             "(implies --trace)")
    return parser


def parse_adaptive_spec(spec: str) -> tuple[float, bool]:
    """``'ci:0.05'`` -> (0.05, relative=True); ``'ci-abs:1.5'`` ->
    (1.5, relative=False)."""
    kind, sep, value = spec.partition(":")
    if not sep or kind not in ("ci", "ci-abs"):
        raise ValueError(
            f"bad --adaptive spec {spec!r}; expected 'ci:<threshold>' "
            f"or 'ci-abs:<threshold>'")
    try:
        threshold = float(value)
    except ValueError:
        raise ValueError(
            f"bad --adaptive threshold {value!r}; expected a number")
    return threshold, kind == "ci"


def _sim_workers(args) -> int:
    """``--workers`` names the worker processes of the out-of-process
    backends; elsewhere only ``--sim-workers`` counts."""
    if args.workers is not None and args.backend in ("processes", "cluster"):
        return args.workers
    return args.sim_workers


def run_sweep_cli(args, model) -> int:
    """The ``--sweep`` path: fused sweep run + optional columnar store."""
    import json

    from repro.sweep import SweepSpec, run_sweep

    try:
        payload = json.loads(
            open(args.sweep).read() if args.sweep != "-"
            else sys.stdin.read())
        spec = SweepSpec.from_dict(payload)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: bad --sweep spec: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = run_sweep(model, spec, t_end=args.t_end,
                           quantum=args.quantum,
                           sample_every=args.sample_every,
                           n_sim_workers=_sim_workers(args),
                           engine_kernel=args.engine_kernel,
                           method=args.method,
                           backend=args.backend,
                           cluster_inflight=args.inflight,
                           trace=args.trace or args.trace_report is not None,
                           trace_report_path=args.trace_report)
    except (KernelUnavailable, NodeError, KeyError, ValueError) as exc:
        # a spec the tasks cannot be built from fails inside the source
        # node (wrapped in NodeError), bad run parameters before it
        original = getattr(exc, "original", exc)
        if not isinstance(original, (KernelUnavailable, KeyError,
                                     ValueError)):
            raise
        print(f"error: {original}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"sweep: {spec.n_points} points x {spec.n_trajectories} "
          f"trajectories, {result.n_cuts} cuts, {elapsed:.2f}s wall-clock")
    if not args.quiet:
        for i, name in enumerate(result.observable_names):
            final = result.mean[:, -1, i]
            print(f"final mean [{name}]: min={final.min():.2f} "
                  f"max={final.max():.2f} across points")
    if result.trace_report is not None:
        print()
        print(result.trace_report.to_text())
        if args.trace_report:
            print(f"\nrun report written to {args.trace_report}")
    if args.sweep_store:
        from repro.pipeline.storage import save_sweep_store
        path = save_sweep_store(result, args.sweep_store)
        print(f"sweep store written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    model = _MODELS[args.model](args.omega)
    if args.sweep is not None:
        return run_sweep_cli(args, model)
    adaptive_ci, adaptive_relative = None, True
    if args.adaptive is not None:
        try:
            adaptive_ci, adaptive_relative = parse_adaptive_spec(
                args.adaptive)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        config = WorkflowConfig(
            n_simulations=args.simulations, t_end=args.t_end,
            sample_every=args.sample_every, quantum=args.quantum,
            n_sim_workers=_sim_workers(args),
            n_stat_workers=args.stat_workers,
            window_size=args.window, window_slide=args.slide,
            kmeans_k=args.kmeans, filter_width=args.filter_width,
            histogram_bins=args.histogram,
            seed=args.seed, engine=args.engine, batch_size=args.batch_size,
            engine_kernel=args.engine_kernel, method=args.method,
            backend=args.backend, keep_cuts=True,
            cluster_inflight=args.inflight,
            adaptive_ci=adaptive_ci, adaptive_relative=adaptive_relative,
            adaptive_repriority=args.adaptive_repriority,
            trace=args.trace or args.trace_report is not None,
            trace_report_path=args.trace_report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_progress(event: ProgressEvent) -> None:
        if args.quiet:
            return
        last = event.statistics.cuts[-1]
        means = " ".join(f"{m:9.2f}" for m in last.mean)
        print(f"window {event.window_index:4d}  "
              f"t=[{event.start_time:8.2f}, {event.end_time:8.2f}]  "
              f"mean@end: {means}")

    if config.adaptive:
        from repro.pipeline.adaptive import make_adaptive_controller
        controller = make_adaptive_controller(config,
                                              on_progress=on_progress)
    else:
        controller = SteeringController(on_progress=on_progress)
    started = time.perf_counter()
    try:
        result = run_workflow(model, config, controller=controller)
    except (KernelUnavailable, NodeError) as exc:
        # task creation runs inside the source node, so a missing kernel
        # backend surfaces wrapped in the runtime's NodeError
        original = getattr(exc, "original", exc)
        if not isinstance(original, KernelUnavailable):
            raise
        print(f"error: {original}", file=sys.stderr)
        print("hint: rerun with --engine-kernel numpy (the reference "
              "kernel, always available)", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    print(f"\n{result.n_windows} windows, "
          f"{len(result.cut_statistics())} cuts, "
          f"{config.n_simulations} trajectories, {elapsed:.2f}s wall-clock")

    stopped_early = getattr(controller, "stop_window", None) is not None
    if stopped_early:
        print(f"adaptive stop at window {controller.stop_window}: "
              f"{controller.stop_reason}")

    if result.trace_report is not None:
        print()
        print(result.trace_report.to_text())
        if config.trace_report_path:
            print(f"\nrun report written to {config.trace_report_path}")

    if args.histogram and result.windows:
        final = result.windows[-1]
        names = (model.observable_names
                 if hasattr(model, "observable_names") else model.observables)
        for obs, hist in sorted(final.histograms.items()):
            modes = hist.mode_bins()
            centers = hist.bin_centers()
            peaks = ", ".join(f"{centers[i]:.0f}" for i in modes)
            print(f"final population histogram [{names[obs]}]: "
                  f"{hist.counts}  modes at ~{peaks}")

    if args.model.startswith("neurospora") and not stopped_early:
        # an adaptive stop retires trajectories mid-horizon, so the full
        # trajectories the period estimator wants do not exist
        trajectories = result.trajectories()
        estimate = ensemble_period(
            [(t.times, t.column(0)) for t in trajectories],
            min_prominence=0.2 * args.omega, smooth_width=5,
            discard_transient=10.0)
        print(f"oscillation period (M): {estimate.mean:.2f} "
              f"+/- {estimate.std:.2f} h over {estimate.n_periods} "
              f"local periods (deterministic model: 21.5 h)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
