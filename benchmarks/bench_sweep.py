#!/usr/bin/env python
"""Fused sweep execution vs the loop-over-solo-runs baseline.

Measures the sweep-plane tentpole end to end: a P-point x T-trajectory
parameter sweep of the Neurospora clock model run

* **fused** -- one :func:`repro.sweep.run_sweep` call: every scheduled
  block advances many points in lockstep through one batched kernel
  invocation, results return coalesced (one wire object per quantum),
  and a single aligner + accumulator reduce the whole sweep online; vs
* **solo loop** -- the status-quo way to sweep: one full
  :func:`repro.pipeline.builder.run_workflow` per point
  (``engine="batch"``, the point's trajectories as one block), results
  reduced per point.

Both paths produce the same per-point ensemble means (the verify step
asserts exact equality on a small sweep before any timing is trusted --
the fused plane's contract is bit-identical trajectories, so the
speedup is pure execution efficiency, not approximation -- and that the
columnar sweep store reads the fused sweep back unchanged).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py \
        [--points 256] [--traj 64] [--t-end 4.0] [--sample-every 0.5] \
        [--quantum 2.0] [--sim-workers 4] [--json BENCH_sweep.json] \
        [--assert-speedup 5]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.models import neurospora_network
from repro.pipeline.builder import run_workflow
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.storage import load_sweep_store, save_sweep_store
from repro.sweep import SweepSpec, run_sweep


def make_points(n_points: int) -> list[dict[str, float]]:
    """One axis swept: the clock's translation rate, P values around
    its nominal 0.5/h."""
    lo, hi = 0.1, 0.9
    return [{"translation": lo + (hi - lo) * i / max(1, n_points - 1)}
            for i in range(n_points)]


def run_fused(network, spec: SweepSpec, args):
    return run_sweep(network, spec, t_end=args.t_end,
                     quantum=args.quantum,
                     sample_every=args.sample_every,
                     n_sim_workers=args.sim_workers)


def run_solo_loop(network, spec: SweepSpec, args) -> np.ndarray:
    """One full workflow per point -- the pre-sweep-plane baseline.
    Returns the (point, cut, observable) mean stack for verification."""
    n_cuts = int(round(args.t_end / args.sample_every)) + 1
    means = []
    for p, overrides in enumerate(spec.points):
        result = run_workflow(
            network.with_rates(overrides),
            WorkflowConfig(
                n_simulations=spec.n_trajectories, t_end=args.t_end,
                sample_every=args.sample_every, quantum=args.quantum,
                n_sim_workers=args.sim_workers, window_size=n_cuts,
                seed=spec.seed_of(p), engine="batch",
                batch_size=spec.n_trajectories))
        means.append([cut.mean for cut in result.cut_statistics()])
    return np.asarray(means)


def verify(network, args) -> None:
    """Fused per-point means must equal the solo loop's exactly before
    any timing is trusted."""
    spec = SweepSpec(make_points(4), n_trajectories=8, seed=args.seed)
    fused = run_fused(network, spec, args)
    solo = run_solo_loop(network, spec, args)
    if not np.array_equal(fused.mean, solo):
        raise AssertionError(
            "fused sweep diverged from the loop-over-solo baseline")
    with tempfile.TemporaryDirectory() as tmp:
        store = load_sweep_store(save_sweep_store(fused, tmp))
        same = (np.array_equal(store.times, fused.times)
                and SweepSpec.from_dict(store.spec_dict()) == spec)
        for i, name in enumerate(store.observables):
            same &= np.array_equal(store.matrix(name),
                                   fused.point_matrix(i, "mean"))
            same &= np.array_equal(store.point(0, name, "variance"),
                                   fused.point_matrix(i, "variance")[0])
        if not same:
            raise AssertionError("the sweep store read back other numbers")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=256)
    parser.add_argument("--traj", type=int, default=64,
                        help="trajectories per point")
    parser.add_argument("--t-end", type=float, default=4.0)
    parser.add_argument("--sample-every", type=float, default=0.5)
    parser.add_argument("--quantum", type=float, default=2.0)
    parser.add_argument("--sim-workers", type=int, default=4)
    parser.add_argument("--omega", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--json", default="BENCH_sweep.json")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless fused beats the solo loop by "
                             "at least this factor")
    args = parser.parse_args(argv)

    network = neurospora_network(omega=args.omega)
    verify(network, args)

    spec = SweepSpec(make_points(args.points), n_trajectories=args.traj,
                     seed=args.seed)
    n_rows = spec.n_rows

    started = time.perf_counter()
    fused = run_fused(network, spec, args)
    fused_s = time.perf_counter() - started

    started = time.perf_counter()
    run_solo_loop(network, spec, args)
    solo_s = time.perf_counter() - started

    speedup = solo_s / fused_s
    report = {
        "n_points": args.points,
        "n_trajectories": args.traj,
        "n_rows": n_rows,
        "t_end": args.t_end,
        "sample_every": args.sample_every,
        "quantum": args.quantum,
        "n_sim_workers": args.sim_workers,
        "n_cuts": fused.n_cuts,
        "fused_s": fused_s,
        "solo_loop_s": solo_s,
        "speedup": speedup,
        "fused_rows_per_s": n_rows / fused_s,
        "solo_rows_per_s": n_rows / solo_s,
    }

    print(f"sweep: {args.points} points x {args.traj} trajectories "
          f"({n_rows} rows), t_end={args.t_end}, "
          f"{args.sim_workers} workers")
    print(f"fused sweep plane: {fused_s:.2f}s "
          f"({report['fused_rows_per_s']:.0f} rows/s)")
    print(f"loop over solo runs: {solo_s:.2f}s "
          f"({report['solo_rows_per_s']:.0f} rows/s)")
    print(f"speedup: {speedup:.2f}x")

    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.json}")

    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(f"FAIL: fused speedup {speedup:.2f}x < "
              f"{args.assert_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
