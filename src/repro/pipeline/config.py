"""Configuration of a simulation-analysis run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class WorkflowConfig:
    """All knobs of the paper's workflow in one place.

    Time quantities are in simulation-time units (hours for the Neurospora
    model).  ``quantum`` is the paper's *simulation quantum*: how much
    simulated time a simulation engine advances one trajectory before
    rescheduling it -- small quanta improve load balancing and bound the
    alignment buffer, at the cost of more scheduling traffic (the trade-off
    Table I explores on the GPU).
    """

    n_simulations: int = 16
    t_end: float = 50.0
    sample_every: float = 0.5
    quantum: float = 2.5
    #: simulation engines: farm threads, or worker processes under
    #: backend="processes" / "cluster"; also how many lockstep tasks the
    #: batch engine fuses its seed blocks into
    n_sim_workers: int = 4
    n_stat_workers: int = 1
    window_size: int = 10
    window_slide: Optional[int] = None  # None -> non-overlapping
    kmeans_k: Optional[int] = None
    filter_width: Optional[int] = None
    histogram_bins: Optional[int] = None
    seed: Optional[int] = 0
    engine: str = "auto"          # "flat" | "cwc" | "auto" | "batch"
    #: trajectories per RNG stream (engine="batch"): fixes the seed
    #: blocks a recorded seed reproduces; the runtime may advance several
    #: streams in one lockstep task
    batch_size: int = 64
    #: inner-loop kernel of the batch engine: "numpy" (the default and
    #: the correctness oracle), "numba" (JIT-compiled, bit-identical to
    #: numpy for the same seeds) or "cupy" (real-GPU arrays); the latter
    #: two need the matching optional extra installed
    engine_kernel: str = "numpy"
    #: stepping algorithm: "exact" (direct-method SSA, the default),
    #: "first" (first-reaction method, scalar engines only), "tau"
    #: (tau-leaping with CGP step control + exact fallback) or "hybrid"
    #: (tau with a per-row population gate keeping small-count rows
    #: exact).  tau/hybrid are distribution-equivalent to exact, not
    #: bit-identical.
    method: str = "exact"
    scheduling: str = "ondemand"  # farm dispatch policy
    #: "threads" | "sequential" (in-process executors), or "processes" /
    #: "cluster": two names for one runtime, the TCP master/worker
    #: cluster of repro.distributed.net with its workers spawned on this
    #: host (they return results through shared memory)
    backend: str = "threads"
    keep_cuts: bool = False       # retain raw cuts (memory!) for examples
    trace: bool = False           # record runtime metrics (run report)
    trace_report_path: Optional[str] = None  # write the JSON report here
    # -- out-of-process runtime (backend="processes" / "cluster") -------
    cluster_inflight: int = 2     # bounded in-flight window per worker
    heartbeat_interval: float = 0.5
    heartbeat_timeout: Optional[float] = None  # None -> 10 * interval
    # -- adaptive feedback loop (repro.pipeline.adaptive) ----------------
    #: convergence-stop CI threshold: retire the run once every tracked
    #: species' pooled confidence-interval half-width falls below it
    #: (None disables the policy)
    adaptive_ci: Optional[float] = None
    #: interpret ``adaptive_ci`` relative to the pooled |mean| (default)
    #: or as an absolute half-width
    adaptive_relative: bool = True
    #: analysed windows required before the convergence stop may fire
    adaptive_min_windows: int = 2
    #: observable indices the stop policy tracks (None -> all species)
    adaptive_species: Optional[tuple[int, ...]] = None
    #: re-key the simulation backlog laggards-first on every analysed
    #: window (mid-run re-prioritisation through the bounded backlog)
    adaptive_repriority: bool = False

    BACKENDS = ("threads", "sequential", "processes", "cluster")
    ENGINE_KERNELS = ("numpy", "numba", "cupy")
    METHODS = ("exact", "first", "tau", "hybrid")

    def __post_init__(self) -> None:
        if self.n_simulations < 1:
            raise ValueError("n_simulations must be >= 1")
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; pick one of "
                f"{', '.join(self.BACKENDS)}")
        if self.cluster_inflight < 1:
            raise ValueError("cluster_inflight must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.engine_kernel not in self.ENGINE_KERNELS:
            raise ValueError(
                f"unknown engine_kernel {self.engine_kernel!r}; pick one "
                f"of {', '.join(self.ENGINE_KERNELS)}")
        if self.method not in self.METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; pick one of "
                f"{', '.join(self.METHODS)}")
        if self.method == "first" and self.engine == "batch":
            raise ValueError(
                "method='first' is scalar-only; the batch engine "
                "supports exact, tau and hybrid")
        if self.method != "exact" and self.engine == "cwc":
            raise ValueError(
                f"method={self.method!r} needs a flat network; the CWC "
                "tree-term engine is exact-only")
        if self.t_end <= 0 or self.sample_every <= 0 or self.quantum <= 0:
            raise ValueError("t_end, sample_every, quantum must be > 0")
        if self.n_sim_workers < 1 or self.n_stat_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.window_slide is not None and not (
                1 <= self.window_slide <= self.window_size):
            raise ValueError("window_slide must be in [1, window_size]")
        if self.adaptive_ci is not None and self.adaptive_ci <= 0:
            raise ValueError("adaptive_ci must be > 0")
        if self.adaptive_min_windows < 1:
            raise ValueError("adaptive_min_windows must be >= 1")

    @property
    def adaptive(self) -> bool:
        """True when any adaptive policy is configured."""
        return self.adaptive_ci is not None or self.adaptive_repriority

    @property
    def n_grid_points(self) -> int:
        """Sampling-grid points per trajectory, including t=0 and t_end."""
        return int(round(self.t_end / self.sample_every)) + 1

    @property
    def n_quanta(self) -> int:
        """Quanta needed per trajectory (ceiling)."""
        import math
        return math.ceil(self.t_end / self.quantum)
