"""The real TCP cluster, with a mid-run worker kill.

Run with::

    python examples/cluster_run.py [report.json]

Runs the Neurospora workflow three times:

1. on the in-process ``threads`` backend (the reference),
2. on a localhost TCP cluster with 2 worker processes,
3. on the same cluster with one worker SIGKILLed mid-run.

Then verifies all three produce **bit-identical** statistics -- the
cluster runtime's determinism guarantee (DESIGN.md section 10): a task
carries its full simulator state, the worker returns state + results in
one atomic frame, so a dead worker's in-flight tasks replay on the
survivor and regenerate exactly the lost samples.  CI runs this script
as its cluster smoke job and archives the trace report.

If a path is given, the chaos run's trace report (scheduler totals,
per-link traffic, reassignment counters) is written there as JSON.
Exits non-zero on any mismatch.
"""

import sys

from repro.distributed.net import KillWorkerAfter, run_workflow_cluster
from repro.ff.trace import Tracer
from repro.models import neurospora_network
from repro.pipeline import WorkflowConfig, run_workflow


def stats_of(result):
    return [(s.grid_index, s.mean, s.variance)
            for s in result.cut_statistics()]


def main(report_path: str | None = None) -> int:
    network = neurospora_network(omega=30)
    base = dict(n_simulations=8, t_end=12.0, sample_every=0.5, quantum=1.0,
                n_sim_workers=2, window_size=8, seed=42, keep_cuts=True)

    print("1/3 threads backend (reference) ...")
    reference = run_workflow(network, WorkflowConfig(**base))

    print("2/3 cluster backend, 2 worker processes ...")
    clustered = run_workflow(
        network, WorkflowConfig(**base, backend="cluster"))

    print("3/3 cluster backend, worker 0 SIGKILLed mid-run ...")
    chaos = KillWorkerAfter(n_results=5, worker_id=0)
    tracer = Tracer()
    survived = run_workflow_cluster(
        network, WorkflowConfig(**base, backend="cluster"),
        tracer=tracer, fault_hook=chaos)

    master = chaos.master
    print(f"\n    worker killed: {chaos.fired}, "
          f"workers failed: {master.workers_failed}, "
          f"tasks reassigned: {master.reassignments}, "
          f"dispatched {master.tasks_dispatched} / "
          f"received {master.results_received} "
          f"(the gap replayed on the survivor)")

    report = tracer.report()
    if report_path:
        report.save(report_path)
        print(f"    trace report written to {report_path}")

    ok = True
    for name, result in [("cluster", clustered), ("cluster+kill", survived)]:
        identical = stats_of(result) == stats_of(reference)
        print(f"    {name:13s} identical to threads: {identical}")
        ok = ok and identical
    if not chaos.fired:
        print("    fault injector never fired (run too short?)")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
