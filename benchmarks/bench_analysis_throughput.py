#!/usr/bin/env python
"""Analysis-half throughput: scalar reference vs. columnar plane.

Drives the online-analysis chain of the paper's Fig. 2 — trajectory
alignment, sliding window, statistical engines (per-cut statistics,
k-means, histogram, moving-average filter) — synchronously with a
pre-built synthetic stream of result blocks (one per trajectory and
quantum, what scalar tasks ship), so the measurement isolates analysis
cost from simulation and channel cost:

* **scalar**:   ScalarTrajectoryAligner -> ScalarSlidingWindowNode ->
  ScalarStatEngineNode, the oracle chain of ``tests/oracles/analysis.py``:
  it reads each block sample by sample into Python tuples;
* **columnar**: TrajectoryAligner -> SlidingWindowNode ->
  StatEngineNode, the runtime's chain — a block lands in the ring
  buffer with one slice.

The stream is built *outside* the timed region.  The script verifies
the two chains agree (exact k-means/histograms, 1e-9 statistics) before
trusting the timing, writes ``BENCH_analysis.json``, and optionally
asserts a speedup floor (CI runs ``--assert-speedup 5``; the acceptance
target at 1024 trajectories is 10x).

It also writes the runtime trace report of a real (small) threaded
Neurospora workflow and times the scalar chain, driven by hand from the
same tasks (the scalar classes are test oracles, not a workflow
option), so the analysis-half cost of the two planes can be compared on
real results.

Run from the repository root, with it on the path for ``tests.oracles``::

    PYTHONPATH=src:. python benchmarks/bench_analysis_throughput.py \
        [--n-traj 1024] [--json BENCH_analysis.json] \
        [--assert-speedup 10] [--skip-trace]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.analysis.engines import StatEngineNode
from repro.analysis.windows import SlidingWindowNode
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import ResultBlock
from tests.oracles.analysis import (ScalarSlidingWindowNode,
                                    ScalarStatEngineNode,
                                    ScalarTrajectoryAligner)

WINDOW_SIZE = 10
WINDOW_SLIDE = 5
KMEANS_K = 2
HISTOGRAM_BINS = 16
FILTER_WIDTH = 3


def make_stream(n_traj: int, n_grid: int, n_obs: int, quantum_samples: int,
                seed: int = 0) -> list[ResultBlock]:
    """A synthetic stream of one-trajectory result blocks.

    Trajectories split into two populations (even/odd task ids) so
    k-means has real structure to find.  Results arrive round-robin by
    quantum — every trajectory reports quantum q before any reports
    quantum q+1 — which is the in-order regime the quantum-based
    scheduling of the paper produces.
    """
    rng = np.random.default_rng(seed)
    base = np.where(np.arange(n_traj) % 2 == 0, 50.0, 400.0)
    data = (base[:, None, None]
            + rng.normal(0.0, 5.0, size=(n_traj, n_grid, n_obs)))
    times = np.arange(n_grid, dtype=float) * 0.5

    stream = []
    for g0 in range(0, n_grid, quantum_samples):
        g1 = min(n_grid, g0 + quantum_samples)
        stream.extend(
            ResultBlock(range(task_id, task_id + 1), g0, times[g0:g1],
                        data[task_id:task_id + 1, g0:g1], g1 == n_grid)
            for task_id in range(n_traj))
    return stream


class _Feed:
    """Outbox bridging one node's emissions into the next node's svc."""

    def __init__(self, node):
        self.node = node

    def send(self, item):
        self.node.svc(item)


class _Collect:
    def __init__(self):
        self.items = []

    def send(self, item):
        self.items.append(item)


def build_chain(n_traj: int, columnar: bool):
    aligner = (TrajectoryAligner if columnar
               else ScalarTrajectoryAligner)(n_traj)
    window_cls = SlidingWindowNode if columnar else ScalarSlidingWindowNode
    window = window_cls(WINDOW_SIZE, WINDOW_SLIDE)
    engine = (StatEngineNode if columnar else ScalarStatEngineNode)(
        kmeans_k=KMEANS_K, filter_width=FILTER_WIDTH,
        histogram_bins=HISTOGRAM_BINS)
    out = _Collect()
    aligner._outbox = _Feed(window)
    window._outbox = _Feed(engine)
    engine._outbox = out  # unused (engine returns), kept for symmetry
    return aligner, window, engine, out


def run_chain(stream, n_traj: int, columnar: bool):
    aligner, window, engine, _ = build_chain(n_traj, columnar)
    results = []
    original_svc = engine.svc
    engine.svc = lambda w: results.append(original_svc(w))
    started = time.perf_counter()
    for result in stream:
        aligner.svc(result)
    window.svc_end()
    elapsed = time.perf_counter() - started
    return elapsed, results


def check_equivalence(scalar_out, columnar_out) -> None:
    assert len(scalar_out) == len(columnar_out) > 0, \
        (len(scalar_out), len(columnar_out))
    for ws, wc in zip(scalar_out, columnar_out):
        assert ws.window_index == wc.window_index
        assert len(ws.cuts) == len(wc.cuts)
        for ss, sc in zip(ws.cuts, wc.cuts):
            assert ss.grid_index == sc.grid_index
            np.testing.assert_allclose(ss.mean, sc.mean, rtol=1e-9)
            np.testing.assert_allclose(ss.variance, sc.variance, rtol=1e-9)
        for obs in ws.clusters:
            assert ws.clusters[obs].assignments == \
                wc.clusters[obs].assignments, "k-means diverged"
            assert ws.clusters[obs].centroids == wc.clusters[obs].centroids
        for obs in ws.histograms:
            assert ws.histograms[obs].counts == wc.histograms[obs].counts


def bench(n_traj: int, n_grid: int, repeats: int) -> dict:
    n_obs, quantum_samples = 3, 15
    stream = make_stream(n_traj, n_grid, n_obs, quantum_samples)
    n_samples = n_traj * n_grid

    # correctness first: the fast path must agree with the oracle
    _, scalar_out = run_chain(stream, n_traj, columnar=False)
    _, columnar_out = run_chain(stream, n_traj, columnar=True)
    check_equivalence(scalar_out, columnar_out)

    scalar_best = min(run_chain(stream, n_traj, False)[0]
                      for _ in range(repeats))
    columnar_best = min(run_chain(stream, n_traj, True)[0]
                        for _ in range(repeats))
    return {
        "n_trajectories": n_traj,
        "n_grid_points": n_grid,
        "n_observables": n_obs,
        "n_windows": len(columnar_out),
        "window_size": WINDOW_SIZE,
        "window_slide": WINDOW_SLIDE,
        "kmeans_k": KMEANS_K,
        "scalar_seconds": scalar_best,
        "columnar_seconds": columnar_best,
        "scalar_samples_per_s": n_samples / scalar_best,
        "columnar_samples_per_s": n_samples / columnar_best,
        "speedup": scalar_best / columnar_best,
    }


def trace_reports(out_prefix: str) -> dict:
    """Per-node trace of a real threaded workflow, and the scalar chain
    over the same tasks' results."""
    from repro.models import neurospora_network
    from repro.pipeline import WorkflowConfig, run_workflow
    from repro.sim.task import make_tasks

    network = neurospora_network(omega=50)
    path = f"{out_prefix}_columnar.json"
    config = WorkflowConfig(
        n_simulations=16, t_end=12.0, sample_every=0.25, quantum=2.0,
        n_sim_workers=2, window_size=WINDOW_SIZE,
        window_slide=WINDOW_SLIDE, kmeans_k=KMEANS_K,
        histogram_bins=HISTOGRAM_BINS, filter_width=FILTER_WIDTH,
        seed=0, trace=True, trace_report_path=path)
    result = run_workflow(network, config)
    analysis = [n for n in result.trace_report.nodes
                if n["name"] in ("sim-farm.collector", "windows")
                or n["name"].startswith("stat-farm.w")]
    svc_ms = sum(n["svc_time_s"]["total"] for n in analysis) * 1e3
    print(f"  trace[columnar]: analysis-half svc {svc_ms:.1f} ms "
          f"(aligner + window + stat engines) -> {path}")
    stream, pending = [], make_tasks(
        network, config.n_simulations, config.t_end, config.quantum,
        config.sample_every, seed=config.seed)
    while pending:
        stream.extend(task.run_quantum() for task in pending)
        pending = [task for task in pending if not task.done]
    scalar_s, scalar_out = run_chain(stream, config.n_simulations, False)
    assert len(scalar_out) == len(result.windows)
    print(f"  hand-driven scalar chain: {scalar_s * 1e3:.1f} ms")
    return {"columnar": path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-traj", type=int, default=1024)
    parser.add_argument("--n-grid", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default="BENCH_analysis.json")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="exit non-zero unless speedup >= this floor")
    parser.add_argument("--skip-trace", action="store_true",
                        help="skip the before/after workflow trace reports")
    args = parser.parse_args(argv)

    print(f"analysis throughput @ {args.n_traj} trajectories x "
          f"{args.n_grid} grid points (best of {args.repeats})")
    report = bench(args.n_traj, args.n_grid, args.repeats)
    print(f"  scalar:   {report['scalar_seconds'] * 1e3:9.1f} ms  "
          f"({report['scalar_samples_per_s']:,.0f} samples/s)")
    print(f"  columnar: {report['columnar_seconds'] * 1e3:9.1f} ms  "
          f"({report['columnar_samples_per_s']:,.0f} samples/s)")
    print(f"  speedup:  {report['speedup']:9.1f}x")

    if not args.skip_trace:
        report["trace_reports"] = trace_reports("trace_analysis")

    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.json}")

    if args.assert_speedup is not None and \
            report["speedup"] < args.assert_speedup:
        print(f"FAIL: speedup {report['speedup']:.1f}x < floor "
              f"{args.assert_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
