#!/usr/bin/env python
"""Batch-SSA engine throughput: numpy inner loops vs JIT kernels.

Runs the batch engine (:class:`repro.cwc.batch.BatchFlatSimulator`) over
the Neurospora network at each requested batch size (default 64, 256
and 1024: the paper's block size, the sweep planes' and the large-batch
regime) with each available ``engine_kernel`` and reports steps per
second next to microseconds per lockstep iteration -- at 64 rows an
iteration is dispatch-bound, so that is the number a kernel change
moves there.  Before timing anything it verifies the kernels are
*bit-identical*: every kernel must produce exactly the same states and
times as the numpy oracle, else its speed is meaningless (see
``tests/cwc/test_kernels.py`` for the fine-grained equivalence suite).

The numba leg JIT-compiles on first touch; a warm-up run keeps
compilation out of the timings (``cache=True`` also persists the
compiled loops between processes).  Without numba installed the script
degrades to the numpy baseline and reports the missing kernels --
useful locally; CI installs numba and asserts the speedup floor.

``--streams N`` times the same rows a second time as ``N`` equal RNG
streams (``rng_streams``, what a fused lockstep task of ``N`` seed
blocks runs) and prints us/iteration for both, so the cost of the two
extra generator calls per stream per iteration is a number.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        [--batch 64 256 1024] [--t-end 0.5] [--omega 100] [--repeat 3] \
        [--streams 8] [--json BENCH_kernels.json] [--assert-speedup 3]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.cwc.batch import BatchFlatSimulator
from repro.cwc.kernels import KERNEL_NAMES, kernel_available
from repro.models import neurospora_network


def run_once(network, kernel: str, batch: int, t_end: float,
             seed: int, streams: int = 1
             ) -> tuple[int, float, np.ndarray, int]:
    """Steps fired, wall seconds, final counts and lockstep iterations
    (one ``advance`` runs until its longest row is through).  With
    ``streams`` > 1 the rows are split into that many equal RNG streams,
    seeded like consecutive seed blocks."""
    if streams == 1:
        sim = BatchFlatSimulator(network, batch, seed=seed, kernel=kernel)
    else:
        rows = batch // streams
        sim = BatchFlatSimulator(
            network, batch, kernel=kernel,
            rng_streams=[(rows, seed + i * rows) for i in range(streams)])
    started = time.perf_counter()
    sim.advance(t_end)
    elapsed = time.perf_counter() - started
    return (sim.total_steps, elapsed, sim.counts.copy(),
            int(sim.steps.max()) + 1)


def best_lap(network, kernel: str, batch: int, t_end: float, seed: int,
             repeat: int, streams: int = 1) -> tuple[int, float, int]:
    """Steps, wall seconds and iterations of the fastest of ``repeat +
    1`` laps (the first lap is the JIT warm-up)."""
    laps = [run_once(network, kernel, batch, t_end, seed, streams)
            for _ in range(repeat + 1)]
    steps, elapsed, _, iterations = min(laps, key=lambda lap: lap[1])
    return steps, elapsed, iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, nargs="+",
                        default=[64, 256, 1024])
    parser.add_argument("--t-end", type=float, default=0.5)
    parser.add_argument("--omega", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--streams", type=int, default=1,
                        help="also time every batch split into this "
                             "many equal RNG streams (a fused lockstep "
                             "task) and print us/iteration for both")
    parser.add_argument("--json", default="BENCH_kernels.json")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless every available JIT kernel "
                             "beats numpy by at least this factor at "
                             "the largest batch")
    parser.add_argument("--require", action="append", default=[],
                        metavar="KERNEL",
                        help="fail (exit 1) if this kernel is not "
                             "available; repeatable.  CI uses "
                             "'--require numba' so a broken numba "
                             "install fails the job instead of "
                             "silently shipping a numpy-only artifact")
    args = parser.parse_args(argv)
    if args.streams < 1 or any(b % args.streams for b in args.batch):
        parser.error("--streams must be >= 1 and divide every --batch")

    network = neurospora_network(omega=args.omega)
    kernels = [k for k in KERNEL_NAMES if kernel_available(k)]
    missing = [k for k in KERNEL_NAMES if k not in kernels]
    required_missing = [k for k in args.require if k not in kernels]
    if required_missing:
        print(f"FAIL: required kernel(s) not available: "
              f"{', '.join(required_missing)}", file=sys.stderr)
        return 1

    report = {"t_end": args.t_end, "omega": args.omega,
              "missing_kernels": missing, "batches": {}}
    for batch in args.batch:
        # correctness gate: same seed => bit-identical states for every
        # kernel (the cupy kernel is excluded -- its device scan is not
        # bit-pinned; it gets a statistical sanity check instead)
        oracle_steps, _, oracle_counts, _ = run_once(
            network, "numpy", batch, args.t_end, args.seed)
        for kernel in kernels:
            steps, _, counts, _ = run_once(network, kernel, batch,
                                           args.t_end, args.seed)
            if kernel == "cupy":
                assert (counts >= 0).all(), \
                    "cupy kernel produced bad states"
            elif steps != oracle_steps or counts.tobytes() != \
                    oracle_counts.tobytes():
                print(f"FAIL: kernel {kernel!r} diverged from the numpy "
                      f"oracle at batch {batch} (steps {steps} vs "
                      f"{oracle_steps})", file=sys.stderr)
                return 1

        timings = report["batches"][str(batch)] = {}
        for kernel in kernels:
            steps, best, iterations = best_lap(
                network, kernel, batch, args.t_end, args.seed, args.repeat)
            timings[kernel] = {
                "steps": steps, "steps_per_s": steps / best,
                "us_per_iteration": best / iterations * 1e6}
            timings[kernel]["speedup_vs_numpy"] = (
                timings[kernel]["steps_per_s"]
                / timings["numpy"]["steps_per_s"])
            print(f"batch {batch:>5} {kernel:>6}: "
                  f"{steps / best:>12,.0f} steps/s "
                  f"{best / iterations * 1e6:>8.1f} us/iteration "
                  f"{timings[kernel]['speedup_vs_numpy']:>6.2f}x vs numpy")
            if args.streams > 1:
                # other seeds, other trajectories: compare per iteration
                _, elapsed, split_iterations = best_lap(
                    network, kernel, batch, args.t_end, args.seed,
                    args.repeat, args.streams)
                split = elapsed / split_iterations * 1e6
                one = timings[kernel]["us_per_iteration"]
                timings[kernel]["streams"] = args.streams
                timings[kernel]["us_per_iteration_streams"] = split
                print(f"      as {args.streams:>3} streams: "
                      f"{split:>8.1f} us/iteration "
                      f"({(split - one) / (args.streams - 1):+.2f} us per "
                      "extra stream)")
    if missing:
        print(f"not installed here (skipped): {', '.join(missing)}")

    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.json}")

    if args.assert_speedup is not None:
        jit = [k for k in kernels if k != "numpy"]
        if not jit:
            print("FAIL: --assert-speedup given but no JIT kernel is "
                  "installed", file=sys.stderr)
            return 1
        failed = False
        largest = report["batches"][str(max(args.batch))]
        for kernel in jit:
            speedup = largest[kernel]["speedup_vs_numpy"]
            if speedup < args.assert_speedup:
                print(f"FAIL: {kernel} speedup {speedup:.2f}x < "
                      f"{args.assert_speedup:.1f}x at batch "
                      f"{max(args.batch)}", file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
