#!/usr/bin/env python3
"""The repo's end-to-end benchmark of the Fig. 2 workflow.

Three ways to run it, all from the repository root::

    # what the driver runs: one workload, reps for --seconds seconds,
    # last stdout line = {"correct", "attempted", "failed", "metrics"}
    python3 benchmarks/e2e/run.py --workload neuro_exact_procs \
        --seed 0 --seconds 15 --trace 0

    # the full report: all five workloads interleaved, every end-to-end
    # and per-layer metric by name with its unit, written as JSON
    python3 benchmarks/e2e/run.py [--seed N] [--reps N] [--out FILE]

    # the full report, then a verdict per metric x workload against an
    # earlier one; exits non-zero on any regression
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/baseline.json

The program under test is imported from ``src/`` next to this checkout's
``benchmarks/``; nothing has to be installed.  See README.md here for the
workloads, the layer -> metric -> end-to-end map and the findings.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in wl.WORKLOADS],
                        help="measure this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: how long to keep starting reps "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--reps", type=int, default=10,
                        help="full report: timed reps per workload")
    parser.add_argument("--out", default=str(harness.OUT / "result.json"),
                        help="full report: where to write the JSON")
    parser.add_argument("--compare", metavar="BASE.json",
                        help="compare the full report against BASE.json")
    parser.add_argument("--result", metavar="NEW.json",
                        help="with --compare: judge this earlier report "
                             "instead of measuring a new one")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir():
        print(f"error: no program to measure: {harness.SRC}/repro is "
              "missing", file=sys.stderr)
        return 2
    spec = harness.load_spec()

    if args.workload:
        seconds = spec["run_seconds"] if args.seconds is None \
            else args.seconds
        result, errors = harness.measure(args.workload, args.seed, seconds,
                                         trace=bool(args.trace))
        for error in errors:
            print(f"FAILED {error}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    if args.result:
        with open(args.result) as fh:
            report = json.load(fh)
    else:
        report = harness.run_all(
            args.seed, args.reps,
            log=lambda line: print(line, file=sys.stderr, flush=True))
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(harness.format_report(report))
    failed = any(entry["failed"] or not entry["end_to_end"]
                 for entry in report["workloads"].values())
    if args.compare:
        with open(args.compare) as fh:
            base = json.load(fh)
        lines, regressed = harness.compare(base, report, spec)
        print("\n".join(lines))
        failed = failed or regressed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
