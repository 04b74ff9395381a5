"""Simulation tasks: stochastic trajectories, executed quantum by quantum.

One task class, :class:`SimulationTask`, over a contiguous range of
trajectory ids.  It wraps a simulator -- a block of ``n`` trajectories:
a scalar engine (CWC tree terms, the flat fast path, first-reaction or
tau-leaping) is a block of one, the NumPy lockstep engine
(:class:`~repro.cwc.batch.BatchFlatSimulator`) a block of many, seed
blocks or sweep points fused -- plus its progress bookkeeping.
``run_quantum`` advances the block by one *simulation quantum* (a fixed
amount of simulated time) and returns the observable samples that fell
inside the quantum, on the global sampling grid -- the stream the paper
calls *raw simulation results* -- as one item of one type, a
:class:`ResultBlock` over the task's ids: the granularity the paper
uses for its GPU offload (blocks of simulations as stream items).  The
alignment stage writes a block's members with one slice, so it stays
oblivious to how trajectories were grouped.

Tasks are ordinary picklable objects, so they can cross process and
(simulated) network boundaries -- the distributed simulator serialises
exactly these.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.cwc.batch import BatchFlatSimulator, compile_network
from repro.cwc.gillespie import CWCSimulator
from repro.cwc.model import Model
from repro.cwc.network import FlatSimulator, ReactionNetwork


class ResultBlock:
    """One quantum's samples for a contiguous range of trajectories.

    What every task returns per quantum, as *one* stream item: the
    member task ids (a step-1 ``range``: one id for a scalar task, the
    lockstep block for a batch task), the shared ``times`` vector and
    one member-major ``(n_members, n_grid, n_observables)`` ``values``
    array.  Grid indices are ``grid_start .. grid_start + n_grid - 1``
    by construction.  Because every member stops at the same quantum
    boundary, ``done`` is a single flag.

    ``len(block)`` is the total sample count (0 for a bare progress or
    done marker); an engine's chain of quanta
    (:func:`~repro.sim.engine.run_quantum`) only ever returns a block
    with samples or a done marker.
    ``attach_segment`` / :meth:`release` tie a block to a shared-memory
    segment when its arrays are views over shared pages (the cluster
    runtime's local result ring): the consumer calls :meth:`release`
    once the samples are ingested and the segment unlinks.

    Arrays pickle out of band under protocol 5; a block with no grid
    points pickles without them.
    """

    __slots__ = ("task_ids", "grid_start", "done", "_times", "_values",
                 "_segment")

    def __init__(self, task_ids: Sequence[int], grid_start: int,
                 times: np.ndarray, values: np.ndarray, done: bool):
        self.task_ids = task_ids = id_range(task_ids)
        self.grid_start = int(grid_start)
        self.done = bool(done)
        self._times = times
        self._values = values
        if values.shape[:2] != (len(task_ids), len(times)):
            raise ValueError(
                f"values of shape {values.shape} for {len(task_ids)} "
                f"task ids and {len(times)} times")
        self._segment = None

    @property
    def n_members(self) -> int:
        return len(self.task_ids)

    @property
    def n_grid(self) -> int:
        return len(self._times)

    def __len__(self) -> int:
        """Total sample count across members (0 for a bare done marker)."""
        return self._values.shape[0] * self._values.shape[1]

    # -- shared-memory lifecycle ----------------------------------------
    def attach_segment(self, segment) -> None:
        """Declare that this block's arrays are views into ``segment``
        (anything with a ``release()`` method, usually a
        :class:`repro.distributed.shm.Segment`)."""
        self._segment = segment

    def release(self) -> None:
        """Give the segment back (no-op for a block that owns its
        arrays).  The array attributes are severed *before* that: the
        release unmaps the pages, so a stale read through this block
        must fail loudly (``None``) rather than touch unmapped memory."""
        segment, self._segment = self._segment, None
        if segment is not None:
            self._times = None
            self._values = None
            segment.release()

    # -- pickling: arrays out-of-band under protocol 5, none if empty ----
    def __getstate__(self):
        ids = self.task_ids
        if len(self._times):
            return (ids.start, ids.stop, self.grid_start, self.done,
                    self._times, self._values)
        return (ids.start, ids.stop, self.grid_start, self.done,
                self._values.shape[2])

    def __setstate__(self, state):
        first, stop, self.grid_start, self.done, *arrays = state
        self.task_ids = range(first, stop)
        if len(arrays) == 2:
            self._times, self._values = arrays
        else:
            self._times, self._values = _no_samples(stop - first,
                                                    arrays[0])
        self._segment = None

    def __repr__(self) -> str:
        return (f"<ResultBlock members={self.n_members} "
                f"grid={self.grid_start}+{self.n_grid} "
                f"done={self.done}>")


def id_range(task_ids: Sequence[int]) -> range:
    """``task_ids`` as a step-1 ``range``; ``ValueError`` unless they
    are contiguous and ascending."""
    if isinstance(task_ids, range) and task_ids.step == 1:
        return task_ids
    first = task_ids[0] if len(task_ids) else 0
    ids = range(first, first + len(task_ids))
    if list(task_ids) != list(ids):
        raise ValueError(f"member task ids must be contiguous: {task_ids}")
    return ids


# kept although no empty progress block leaves an engine: every skipped
# quantum inside a chain, and a done marker at an off-grid t_end, is one
@lru_cache(maxsize=None)
def _no_samples(n_members: int, n_obs: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared zero-size ``(times, values)`` pair of a block with no
    grid points (read-only: nothing can be written into them anyway)."""
    times = np.empty(0)
    values = np.empty((n_members, 0, n_obs))
    times.flags.writeable = values.flags.writeable = False
    return times, values


class SimulationTask:
    """A contiguous range of trajectories simulated up to ``t_end``, one
    quantum at a time; see module docstring.

    ``simulator`` is any block of ``n`` trajectories: ``n``,
    ``advance_to(t)``, ``observe_all()`` (an ``(n, n_observables)``
    matrix), ``total_steps``, ``time`` and ``observable_names``.  A
    scalar engine is a block of one
    (:class:`~repro.cwc.gillespie.SampledSimulator`), the NumPy engine a
    lockstep block (:class:`~repro.cwc.batch.BatchFlatSimulator`).  The
    task's key is its first id, ``task_id``: a run's id ranges are
    disjoint, so it is unique.
    """

    def __init__(self, task_ids: Sequence[int], simulator: Any,
                 t_end: float, quantum: float, sample_every: float):
        if quantum <= 0 or sample_every <= 0 or t_end <= 0:
            raise ValueError("t_end, quantum and sample_every must be > 0")
        if len(task_ids) != simulator.n:
            raise ValueError(
                f"{len(task_ids)} task ids for {simulator.n} trajectories")
        self.task_id = id_range(task_ids).start
        self.simulator = simulator
        self.t_end = t_end
        self.quantum = quantum
        self.sample_every = sample_every
        self._next_grid = 0  # next sampling grid index to emit
        #: quanta run so far (one per :meth:`run_quantum` that advanced)
        self.quanta = 0

    @property
    def task_ids(self) -> range:
        return range(self.task_id, self.task_id + self.simulator.n)

    @property
    def n(self) -> int:
        return self.simulator.n

    @property
    def time(self) -> float:
        return self.simulator.time

    @property
    def steps(self) -> int:
        """SSA steps across the block (for cost accounting)."""
        return self.simulator.total_steps

    @property
    def done(self) -> bool:
        return self.time >= self.t_end - 1e-12

    @property
    def n_samples_total(self) -> int:
        """Number of grid points in [0, t_end]."""
        return int(round(self.t_end / self.sample_every)) + 1

    def run_quantum(self) -> ResultBlock:
        """Advance by one quantum (clamped at ``t_end``) and sample.

        The simulator is driven from grid point to grid point so samples
        are taken exactly on the global grid (times ``k * sample_every``).
        The result is one :class:`ResultBlock` over the task's ids.
        """
        simulator = self.simulator
        grid_start = self._next_grid
        grid_times: list[float] = []
        rows: list = []  # one (n, n_obs) matrix per grid point crossed
        if not self.done:
            self.quanta += 1
            target = min(simulator.time + self.quantum, self.t_end)
            while True:
                grid_time = self._next_grid * self.sample_every
                if grid_time > target + 1e-12:
                    break
                if grid_time > simulator.time:
                    simulator.advance_to(grid_time)
                grid_times.append(grid_time)
                rows.append(simulator.observe_all())
                self._next_grid += 1
                if grid_time >= self.t_end - 1e-12:
                    break
            if simulator.time < target:
                simulator.advance_to(target)
        if rows:
            # one member-major copy of the quantum's samples
            times = np.array(grid_times)
            values = np.ascontiguousarray(
                np.asarray(rows, dtype=float).transpose(1, 0, 2))
        else:
            times, values = _no_samples(
                simulator.n, len(simulator.observable_names))
        return ResultBlock(self.task_ids, grid_start, times, values,
                           self.done)

    def __repr__(self) -> str:
        return (f"<SimulationTask {self.task_ids} t={self.time:.3g}/"
                f"{self.t_end:g}>")


def make_tasks(model: Union[Model, ReactionNetwork], n_simulations: int,
               t_end: float, quantum: float, sample_every: float,
               seed: Optional[int] = 0,
               engine: str = "auto",
               batch_size: int = 64,
               engine_kernel: str = "numpy",
               method: str = "exact",
               n_workers: Optional[int] = None) -> list[SimulationTask]:
    """Create tasks covering ``n_simulations`` trajectories of ``model``.

    ``engine`` selects the simulator: ``"flat"`` (plain Gillespie; requires
    a :class:`ReactionNetwork` or a compartment-free model), ``"cwc"``
    (tree-term engine), ``"auto"`` (flat when possible) or ``"batch"``
    (the NumPy lockstep engine: trajectories are grouped into seed blocks
    of ``batch_size``, one RNG stream each, and -- when ``n_workers`` is
    given -- consecutive seed blocks into wider lockstep tasks, see
    :func:`make_batch_tasks`).  Seeds are derived as ``seed + task_id``
    (per seed block for ``"batch"``) so runs are reproducible and
    trajectories independent.  The scalar engines ignore ``n_workers``.

    ``engine_kernel`` picks the batch engine's inner loop
    (:mod:`repro.cwc.kernels`); the scalar engines ignore it.

    ``method`` selects the stepping algorithm: ``"exact"`` (direct
    method, the default), ``"first"`` (first-reaction method, scalar
    engines only), ``"tau"`` / ``"hybrid"`` (tau-leaping; the batch
    engine leaps per row, the scalar engines use
    :class:`~repro.cwc.methods.TauLeapSimulator`).  The CWC tree-term
    engine supports ``"exact"`` only.
    """
    if engine == "batch":
        if method == "first":
            raise ValueError(
                "method='first' is scalar-only; the batch engine "
                "supports exact, tau and hybrid")
        return make_batch_tasks(model, n_simulations, t_end, quantum,
                                sample_every, seed=seed,
                                batch_size=batch_size,
                                engine_kernel=engine_kernel, method=method,
                                n_workers=n_workers)
    tasks = []
    for task_id in range(n_simulations):
        task_seed = None if seed is None else seed + task_id
        simulator = _make_simulator(model, engine, task_seed, method)
        tasks.append(SimulationTask(range(task_id, task_id + 1), simulator,
                                    t_end, quantum, sample_every))
    return tasks


#: widest lockstep task block fusion builds, in rows.  The NumPy kernel's
#: cost per event stops falling about here (EXPERIMENTS.md, "Lockstep
#: width"), while the working set and the per-quantum result payload keep
#: growing with the width.
MAX_FUSED_ROWS = 512


def seed_block_groups(n_simulations: int, batch_size: int,
                      n_workers: Optional[int] = None) -> list[list[range]]:
    """Split ``n_simulations`` trajectory ids into seed blocks of
    ``batch_size`` and group *consecutive* blocks into lockstep tasks.

    Without ``n_workers`` every seed block is its own task.  With it,
    blocks are spread as evenly as possible over the fewest groups that
    still leave ``n_workers`` tasks (or one per block, if there are
    fewer blocks than that) and keep every fused task within
    :data:`MAX_FUSED_ROWS` rows; a ``batch_size`` above half the cap
    therefore never fuses.
    """
    blocks = [range(base, min(base + batch_size, n_simulations))
              for base in range(0, n_simulations, batch_size)]
    per_task = MAX_FUSED_ROWS // batch_size
    if n_workers is None or per_task < 2:
        return [[block] for block in blocks]
    n_groups = max(min(len(blocks), n_workers),
                   -(-len(blocks) // per_task))
    size, extra = divmod(len(blocks), n_groups)
    groups, start = [], 0
    for g in range(n_groups):
        stop = start + size + (g < extra)
        groups.append(blocks[start:stop])
        start = stop
    return groups


def make_batch_tasks(model: Union[Model, ReactionNetwork],
                     n_simulations: int, t_end: float, quantum: float,
                     sample_every: float, seed: Optional[int] = 0,
                     batch_size: int = 64,
                     engine_kernel: str = "numpy",
                     method: str = "exact",
                     n_workers: Optional[int] = None
                     ) -> list[SimulationTask]:
    """Group ``n_simulations`` trajectories into lockstep batch tasks.

    ``batch_size`` is the number of trajectories per *seed block*: each
    block draws from its own generator seeded ``seed + first_task_id``,
    which is what a recorded seed reproduces.  How many seed blocks one
    task advances in lockstep is an execution decision: ``n_workers``
    (how many tasks the runtime wants to keep runnable) lets
    :func:`seed_block_groups` fuse consecutive blocks into one
    :class:`~repro.cwc.batch.BatchFlatSimulator` with one RNG stream per
    block, so every block draws exactly its solo sequence and the
    trajectories are byte-identical to the unfused run while the kernel
    is entered once per task instead of once per block.  ``None`` (the
    default) keeps one task per seed block.

    The network is compiled once and shared by every task (the compiled
    matrices are immutable) through the process-wide compile cache, so
    repeated runs of the same model -- the service's per-RunSpec case and
    every sweep point -- skip recompilation entirely.  ``engine_kernel``
    selects the inner-loop kernel (:mod:`repro.cwc.kernels`); seeds and
    draw order are kernel-independent, so ``"numba"`` reproduces the
    ``"numpy"`` trajectories bit for bit.  ``method`` picks the stepping
    algorithm per
    :class:`~repro.cwc.batch.BatchFlatSimulator` (``"exact"``, ``"tau"``
    or ``"hybrid"``).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(model, ReactionNetwork):
        network = model
    else:
        network = ReactionNetwork.from_model(model)
    compiled = compile_network(network)

    def block_seed(block: range) -> Optional[int]:
        return None if seed is None else seed + block.start

    tasks = []
    for group in seed_block_groups(n_simulations, batch_size, n_workers):
        ids = range(group[0].start, group[-1].stop)
        if len(group) == 1:
            # the historical constructor: single-block tasks do not even
            # change code path
            streams = {"seed": block_seed(group[0])}
        else:
            streams = {"rng_streams": [(len(block), block_seed(block))
                                       for block in group]}
        batch = BatchFlatSimulator(compiled, len(ids), kernel=engine_kernel,
                                   method=method, **streams)
        tasks.append(SimulationTask(ids, batch, t_end, quantum,
                                    sample_every))
    return tasks


def _scalar_simulator(network: ReactionNetwork, seed: Optional[int],
                      method: str):
    """Build one scalar flat-network simulator for ``method``."""
    if method == "exact":
        return FlatSimulator(network, seed=seed)
    if method == "first":
        from repro.cwc.methods import FirstReactionSimulator
        return FirstReactionSimulator(network, seed=seed)
    if method in ("tau", "hybrid"):
        from repro.cwc.methods import TauLeapSimulator
        return TauLeapSimulator(network, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def _make_simulator(model: Union[Model, ReactionNetwork], engine: str,
                    seed: Optional[int], method: str = "exact"):
    if isinstance(model, ReactionNetwork):
        if engine == "cwc":
            raise ValueError("a ReactionNetwork has no CWC term structure")
        return _scalar_simulator(model, seed, method)
    if engine == "flat" or (engine == "auto" and model.is_flat()):
        return _scalar_simulator(ReactionNetwork.from_model(model), seed,
                                 method)
    if engine in ("cwc", "auto"):
        if method != "exact":
            raise ValueError(
                f"method={method!r} needs a flat network; the CWC "
                "tree-term engine is exact-only")
        return CWCSimulator(model, seed=seed)
    raise ValueError(f"unknown engine {engine!r}")
