#!/usr/bin/env python
"""Tau-leaping throughput vs exact batch SSA at large system size.

Runs the lockstep batch engine (:class:`repro.cwc.batch.
BatchFlatSimulator`) over the Lotka-Volterra network at ``--omega``
(default 1000, the large-population regime the paper's Table I targets)
with ``method="exact"``, ``"tau"`` and ``"hybrid"`` and reports the
*steps-per-second-equivalent* throughput: every method simulates the
same span of the same ensemble, so the exact run's event count divided
by each method's wall time is the fair events-rate comparison (a leap
fires thousands of reactions per iteration; counting its iterations
would flatter it absurdly).

Before timing anything the leaped ensembles are sanity-checked against
the exact ensemble: terminal observable means must agree within
``--tolerance`` (the fine-grained KS distribution-equivalence suite
lives in ``tests/cwc/test_tau_equivalence.py``).  Speed without that
agreement is meaningless.

Each leap method also reports microseconds per lockstep iteration (the
busiest row's leaps plus exact steps per call: the loop's iterations,
give or take a last exact draw that lands past the target) -- the
number a change to the leap loop itself moves, as ``bench_kernels.py``
reports it for the exact loop.  A second probe times the leap loop in
the fixed shape of the end-to-end ``neuro_tau_analysis`` workload: one
Neurospora block of 1024 rows at omega 2000, driven ``advance_to`` by
``advance_to`` along a 0.25 grid to t = 28.

Usage::

    PYTHONPATH=src python benchmarks/bench_tau.py \
        [--batch 256] [--t-end 0.5] [--omega 1000] [--repeat 3] \
        [--kernel numpy] [--json BENCH_tau.json] [--assert-speedup 3]

The acceptance target on quiet hardware is 5x for both leap methods;
CI asserts a conservative 3x floor (runners are noisy and shared),
matching the bench_sweep convention.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.cwc.batch import BatchFlatSimulator
from repro.models import lotka_volterra_network, neurospora_network

METHODS = ("exact", "tau", "hybrid")

#: the shape of one neuro_tau_analysis block: rows, system size, the
#: sampling grid and the horizon
NEURO_BATCH, NEURO_OMEGA, NEURO_GRID, NEURO_T_END = 1024, 2000.0, 0.25, 28.0


def leap_iterations(sim, leaps: np.ndarray, exact: np.ndarray) -> int:
    """Lockstep iterations of one leap-method call: its busiest row's
    leaps plus exact steps (``leaps`` / ``exact`` as before the call)."""
    return int((sim.leaps - leaps + sim.exact_steps - exact).max())


def run_once(network, method: str, kernel: str, batch: int, t_end: float,
             seed: int):
    sim = BatchFlatSimulator(network, batch, seed=seed, kernel=kernel,
                             method=method)
    started = time.perf_counter()
    sim.advance(t_end)
    elapsed = time.perf_counter() - started
    return sim, elapsed


def run_grid(network, kernel: str, batch: int, t_end: float, seed: int):
    """One tau block driven along the :data:`NEURO_GRID` as a simulation
    task drives it: wall seconds and lockstep iterations."""
    sim = BatchFlatSimulator(network, batch, seed=seed, kernel=kernel,
                             method="tau")
    elapsed, iterations = 0.0, 0
    for k in range(1, int(round(t_end / NEURO_GRID)) + 1):
        leaps, exact = sim.leaps.copy(), sim.exact_steps.copy()
        started = time.perf_counter()
        sim.advance_to(np.full(batch, k * NEURO_GRID))
        elapsed += time.perf_counter() - started
        iterations += leap_iterations(sim, leaps, exact)
    return elapsed, iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--t-end", type=float, default=0.5)
    parser.add_argument("--omega", type=float, default=1000.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kernel", default="numpy",
                        help="engine kernel for every method (the "
                             "speedup here is algorithmic, not a "
                             "kernel comparison)")
    parser.add_argument("--tolerance", type=float, default=0.1,
                        help="max relative deviation of the leaped "
                             "terminal means from the exact ensemble")
    parser.add_argument("--json", default="BENCH_tau.json")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless tau and hybrid both beat the "
                             "exact run by at least this factor")
    args = parser.parse_args(argv)

    network = lotka_volterra_network(omega=args.omega)

    report = {"model": "lotka-volterra", "omega": args.omega,
              "batch": args.batch, "t_end": args.t_end,
              "kernel": args.kernel, "methods": {}}

    # one timed lap per method first to pin the correctness gate, then
    # the repeat laps for the best rate (first lap also warms up
    # allocation / JIT paths)
    sims = {}
    for method in METHODS:
        best_wall = np.inf
        sim = None
        for _ in range(args.repeat):
            sim, elapsed = run_once(network, method, args.kernel,
                                    args.batch, args.t_end, args.seed)
            best_wall = min(best_wall, elapsed)
        sims[method] = sim
        report["methods"][method] = {
            "wall_s": best_wall,
            "firings": int(sim.steps.sum()),
            "leaps": int(sim.leaps.sum()),
            "exact_steps": int(sim.exact_steps.sum()),
        }
        if method != "exact":
            zeros = np.zeros(args.batch, dtype=np.int64)
            iterations = leap_iterations(sim, zeros, zeros)
            report["methods"][method]["iterations"] = iterations
            if iterations:  # a span too short for any row to step
                report["methods"][method]["us_per_iteration"] = (
                    best_wall / iterations * 1e6)

    exact_mean = sims["exact"].observe_all().mean(axis=0)
    exact_events = report["methods"]["exact"]["firings"]
    report["exact_events"] = exact_events
    failed = False
    for method in METHODS:
        entry = report["methods"][method]
        mean = sims[method].observe_all().mean(axis=0)
        deviation = float(np.max(np.abs(mean - exact_mean)
                                 / np.maximum(np.abs(exact_mean), 1.0)))
        entry["terminal_mean"] = [float(v) for v in mean]
        entry["mean_rel_deviation_vs_exact"] = deviation
        # events-per-second-equivalent: same ensemble span / wall time
        entry["events_per_s_equiv"] = exact_events / entry["wall_s"]
        entry["speedup_vs_exact"] = (
            report["methods"]["exact"]["wall_s"] / entry["wall_s"])
        per_iteration = (f", {entry['us_per_iteration']:.1f} us/iteration"
                         if "us_per_iteration" in entry else "")
        print(f"{method:>6}: {entry['wall_s'] * 1e3:8.1f} ms  "
              f"{entry['events_per_s_equiv']:14,.0f} events/s-equiv  "
              f"{entry['speedup_vs_exact']:6.2f}x  "
              f"(leaps {entry['leaps']:,}, exact steps "
              f"{entry['exact_steps']:,}, mean dev {deviation:.3f}"
              f"{per_iteration})")
        if method != "exact" and deviation > args.tolerance:
            print(f"FAIL: {method} terminal means deviate "
                  f"{deviation:.3f} > {args.tolerance} from exact",
                  file=sys.stderr)
            failed = True

    neuro = neurospora_network(omega=NEURO_OMEGA)
    best_wall, iterations = min(
        run_grid(neuro, args.kernel, NEURO_BATCH, NEURO_T_END, args.seed)
        for _ in range(args.repeat))
    report["neurospora_tau_block"] = {
        "omega": NEURO_OMEGA, "batch": NEURO_BATCH, "t_end": NEURO_T_END,
        "grid": NEURO_GRID, "wall_s": best_wall, "iterations": iterations,
        "us_per_iteration": best_wall / iterations * 1e6}
    print(f"neurospora tau block (omega {NEURO_OMEGA:g}, {NEURO_BATCH} "
          f"rows, {NEURO_GRID} grid to t={NEURO_T_END:g}): "
          f"{best_wall * 1e3:8.1f} ms, {iterations} iterations, "
          f"{best_wall / iterations * 1e6:.1f} us/iteration")

    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.json}")

    if failed:
        return 1
    if args.assert_speedup is not None:
        for method in ("tau", "hybrid"):
            speedup = report["methods"][method]["speedup_vs_exact"]
            if speedup < args.assert_speedup:
                print(f"FAIL: {method} speedup {speedup:.2f}x < "
                      f"{args.assert_speedup:.1f}x", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
