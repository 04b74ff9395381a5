"""The five benchmark workloads, their inputs and their output digests.

A workload is data: a model, a horizon and the ``WorkflowConfig`` /
``SweepSpec`` fields that make one layer of the Fig. 2 workflow dominate
the run.  Everything the program under test sees is generated here from
``(workload, seed, scale)``; ``scale`` shrinks the horizon (the harness
tests use it to stay under a minute) and is 1.0 for every measured run.

Sizes are tuned so one rep takes 1.5-2.5 s on the 2-core reference box:
the driver gives each command about 30 s, and a run needs several reps to
report a median.  ISSUE 11 sized the same workloads for 12-18 s reps; the
configs below keep what dominates each of them and shorten the horizon.

This module imports ``repro`` lazily so the parent process can list
workloads without paying for (or depending on) the package.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: factory in :mod:`repro.models` and its keyword arguments
    model: str
    model_kwargs: dict
    t_end: float
    quantum: float
    sample_every: float
    n_trajectories: int
    backend: str
    #: remaining ``WorkflowConfig`` fields (empty for the sweep)
    config: dict = field(default_factory=dict)
    #: ``{"reaction", "lo", "hi", "points"}`` for the sweep workload
    sweep: Optional[dict] = None


WORKLOADS = (
    Workload(
        name="neuro_exact_procs",
        why="exact batch SSA on the processes backend: the kernel is "
            "nearly all of the layer sum, analysis and transport must "
            "not show",
        model="neurospora_network", model_kwargs={"omega": 100},
        t_end=16.0, quantum=2.0, sample_every=0.5, n_trajectories=128,
        backend="processes",
        config=dict(engine="batch", batch_size=64, method="exact",
                    window_size=16)),
    Workload(
        name="neuro_tau_analysis",
        why="2048 tau-leaped trajectories into one stat engine: aligner, "
            "windows, statistics and shm mapping on the main process are "
            "the critical path, not the kernel",
        model="neurospora_network", model_kwargs={"omega": 2000},
        t_end=28.0, quantum=4.0, sample_every=0.25, n_trajectories=2048,
        backend="processes",
        config=dict(engine="batch", batch_size=1024, method="tau",
                    window_size=32, window_slide=1, kmeans_k=4,
                    histogram_bins=64, filter_width=5, n_stat_workers=1)),
    Workload(
        name="mm_grain_cluster",
        why="scalar tasks, one TaskMsg/ResultMsg round trip per small "
            "quantum over real TCP: frame codec and the ClusterMaster "
            "scheduler dominate the kernel",
        model="mm_enzyme_network", model_kwargs={},
        t_end=4.0, quantum=0.25, sample_every=0.5, n_trajectories=128,
        backend="cluster",
        config=dict(engine="flat", method="exact", window_size=4,
                    cluster_inflight=2)),
    Workload(
        name="mm_grain_threads",
        why="the same scalar tasks with no transport and a five times "
            "finer grain on the default backend: emitter, feedback farm "
            "and queue hops are what is left",
        model="mm_enzyme_network", model_kwargs={},
        t_end=4.0, quantum=0.05, sample_every=0.5, n_trajectories=320,
        backend="threads",
        config=dict(engine="flat", method="exact", window_size=4)),
    Workload(
        name="neuro_sweep_seq",
        why="fused 48-point sweep on the sequential backend plus the "
            "columnar store: per-row rates, per-point RNG streams, "
            "coalesced blocks; also the single-threaded baseline",
        model="neurospora_network", model_kwargs={"omega": 100},
        t_end=6.0, quantum=2.0, sample_every=0.5, n_trajectories=32,
        backend="sequential",
        sweep=dict(reaction="translation", lo=0.2, hi=0.8, points=48)),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def sim_workers(backend: str) -> int:
    """Simulation workers, derived from the machine: two node threads on
    ``threads``; elsewhere one worker process per core left over by the
    main process (which runs aligner, windows and statistics)."""
    if backend == "threads":
        return 2
    return max(1, len(os.sched_getaffinity(0)) - 1)


def horizon(workload: Workload, scale: float) -> float:
    """``t_end`` shrunk by ``scale``, kept a whole number of quanta."""
    quanta = max(1, round(workload.t_end * scale / workload.quantum))
    return quanta * workload.quantum


def n_samples(workload: Workload, scale: float) -> int:
    """Trajectories x grid points one rep produces."""
    grid = int(round(horizon(workload, scale) / workload.sample_every)) + 1
    points = workload.sweep["points"] if workload.sweep else 1
    return workload.n_trajectories * points * grid


def build_model(workload: Workload):
    import repro.models
    return getattr(repro.models, workload.model)(**workload.model_kwargs)


def build_config(workload: Workload, seed: int, scale: float,
                 trace: bool = False):
    """The ``WorkflowConfig`` of one rep (workflow workloads only)."""
    from repro.pipeline import WorkflowConfig
    return WorkflowConfig(
        n_simulations=workload.n_trajectories,
        t_end=horizon(workload, scale), quantum=workload.quantum,
        sample_every=workload.sample_every, backend=workload.backend,
        n_sim_workers=sim_workers(workload.backend), seed=seed,
        trace=trace, **workload.config)


def build_sweep_spec(workload: Workload, seed: int):
    from repro.sweep import SweepSpec
    sweep = workload.sweep
    step = (sweep["hi"] - sweep["lo"]) / (sweep["points"] - 1)
    values = [sweep["lo"] + i * step for i in range(sweep["points"])]
    return SweepSpec.grid({sweep["reaction"]: values},
                          n_trajectories=workload.n_trajectories,
                          seed=seed)


def _floats(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def digest_windows(windows) -> str:
    """SHA-256 over every window's ``(window_index, window_mean,
    ci_half_width)`` and every cut's ``(grid_index, mean, variance)``,
    in window order -- DESIGN.md's bit-identity promise as one string."""
    h = hashlib.sha256()
    for window in sorted(windows, key=lambda w: w.window_index):
        h.update(struct.pack("<q", window.window_index))
        h.update(_floats(window.window_mean))
        h.update(_floats(window.ci_half_width))
        for cut in window.cuts:
            h.update(struct.pack("<q", cut.grid_index))
            h.update(_floats(cut.mean))
            h.update(_floats(cut.variance))
    return h.hexdigest()


def digest_sweep(times, mean, variance) -> str:
    """SHA-256 over the sweep's ``times`` / ``mean`` / ``variance``
    matrices (C order, float64)."""
    import numpy as np
    h = hashlib.sha256()
    for array in (times, mean, variance):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()
