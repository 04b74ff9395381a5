"""Drive a resident worker pool by hand, the way the simulation farm's
engines do: one dispatch (quanta until a sample) per ``submit``, each
task's next dispatch submitted with the checkpoint its last one
returned."""

from __future__ import annotations

from repro.sim.engine import run_quantum


def drive(pool, tasks, namespace=None, stop=None, timeout=60.0) -> list:
    """Run ``tasks`` to completion on ``pool`` -- all of them in flight
    together, a round at a time -- and return every dispatch's result
    item.  ``stop(results)`` returning True retires the unfinished
    tasks at the end of that round, as a steered stop does."""
    results: list = []
    pending = list(tasks)
    while pending:
        futures = [pool.submit(run_quantum, task, namespace)
                   for task in pending]
        pending = []
        for future in futures:
            checkpoint, result = future.result(timeout=timeout)
            results.append(result)
            if not checkpoint.done:
                pending.append(checkpoint)
        if stop is not None and stop(results):
            break
    return results
