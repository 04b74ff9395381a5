"""NumPy-vectorized batch SSA: many flat trajectories advanced in lockstep.

This is the Python analog of the paper's SIMT offload: instead of one slow
scalar Gillespie loop per trajectory, a whole *batch* of independent
trajectories advances together, each SSA step executed as a handful of
NumPy array operations over the batch.  The building blocks:

* :class:`CompiledNetwork` precompiles a
  :class:`~repro.cwc.network.ReactionNetwork` into a stoichiometry matrix,
  a reactant-order matrix and a *propensity plan*: the propensity matrix
  as a flat list of NumPy calls (mass-action ``comb(n, 1)``/``comb(n, 2)``
  fast paths; the rate laws of :mod:`repro.cwc.rates` in closed form;
  arbitrary callables fall back to a per-trajectory loop) that
  :class:`~repro.cwc.kernels.NumpyKernel` binds to preallocated buffers;
* :class:`BatchFlatSimulator` holds the batched state (counts matrix,
  per-trajectory clocks and step counters) and one
  :class:`numpy.random.Generator`.  Every lockstep iteration draws all
  exponential waiting times at once, selects one reaction per trajectory
  by cumulative-sum inversion, and applies all state changes with a single
  scatter-add.  Trajectories that reach their time target (or exhaust
  their propensities) drop out of the *active mask* without stalling the
  rest of the batch.

Stopping at a quantum boundary remains statistically exact for every
member: the exponential clock is memoryless, so the partially elapsed
waiting time of a trajectory that overshoots its target is discarded and
resampled on the next call -- the same argument
:meth:`repro.cwc.gillespie.CWCSimulator.advance` relies on.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.cwc.gillespie import SSAResult
from repro.cwc.kernels import NumpyKernel, make_kernel
from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork, StateView
from repro.cwc.rates import (
    Constant,
    HillActivation,
    HillRepression,
    Linear,
    MichaelisMenten,
    Product,
)


class _RowView:
    """StateView adapter reading one row of the batched counts matrix.

    Only used by the generic-callable fallback of
    :func:`_vectorize_rate_law`; the known rate-law classes never touch it.
    """

    __slots__ = ("_row", "_index")

    def __init__(self, row: np.ndarray, index: dict[str, int]):
        self._row = row
        self._index = index

    def count(self, species: str) -> int:
        i = self._index.get(species)
        return int(self._row[i]) if i is not None else 0

    def __getitem__(self, species: str) -> int:
        return self.count(species)


def _vectorize_rate_law(rate, index: dict[str, int]
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """Translate one functional rate law into an array expression.

    Returns a function mapping the batched counts matrix ``X`` (one row
    per trajectory, one column per species) to the per-trajectory rate
    values.  The picklable law classes of :mod:`repro.cwc.rates` get exact
    closed-form translations; any other callable is evaluated row by row
    through a :class:`_RowView` (slow, but identical to the scalar path).
    """
    if isinstance(rate, Constant):
        value = float(rate.value)
        return lambda X: np.full(X.shape[0], value)
    if isinstance(rate, Linear):
        col, k = index[rate.species], float(rate.k)
        return lambda X: k * X[:, col]
    if isinstance(rate, HillRepression):
        col = index[rate.species]
        omega, v, n = float(rate.omega), float(rate.v), float(rate.n)
        kn = float(rate.K) ** n

        def hill_repression(X: np.ndarray) -> np.ndarray:
            x = X[:, col] / omega
            return omega * v * kn / (kn + x ** n)
        return hill_repression
    if isinstance(rate, HillActivation):
        col = index[rate.species]
        omega, v, n = float(rate.omega), float(rate.v), float(rate.n)
        kn = float(rate.K) ** n

        def hill_activation(X: np.ndarray) -> np.ndarray:
            xn = (X[:, col] / omega) ** n
            return omega * v * xn / (kn + xn)
        return hill_activation
    if isinstance(rate, MichaelisMenten):
        col = index[rate.species]
        omega, v, K = float(rate.omega), float(rate.v), float(rate.K)

        def michaelis_menten(X: np.ndarray) -> np.ndarray:
            x = X[:, col] / omega
            return omega * v * x / (K + x)
        return michaelis_menten
    if isinstance(rate, Product):
        left = (_vectorize_rate_law(rate.left, index)
                if callable(rate.left) else None)
        right = (_vectorize_rate_law(rate.right, index)
                 if callable(rate.right) else None)
        lc = None if left is not None else float(rate.left)
        rc = None if right is not None else float(rate.right)

        def product(X: np.ndarray) -> np.ndarray:
            lv = left(X) if left is not None else lc
            rv = right(X) if right is not None else rc
            return lv * rv
        return product

    # generic callable: row-by-row through the StateView protocol
    def generic(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            out[i] = rate(_RowView(X[i], index))
        return out
    return generic


#: laws reading one species (``law.species``) and nothing else
_ONE_SPECIES_LAWS = (Linear, HillRepression, HillActivation, MichaelisMenten)


# plan steps that are not plain ufuncs, in the ufunc calling convention
def _evaluate(law: Callable, X: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, law(X))


def _gate(n: np.ndarray, need: float, out: np.ndarray) -> None:
    out[n < need] = 0.0


class CompiledNetwork:
    """A :class:`ReactionNetwork` precompiled for batched evaluation.

    Attributes:

    * ``species_index`` -- species name -> column in the counts matrix;
    * ``stoich`` -- ``(n_reactions, n_species)`` net state change per
      firing (products minus reactants);
    * ``order`` -- ``(n_reactions, n_species)`` reactant multiplicities
      (the ``m`` of each ``comb(n, m)`` factor);
    * ``plan`` -- the propensity matrix as bindable NumPy calls
      (:meth:`_compile_plan`);
    * ``propensities(X)`` -- the batched propensity matrix.
    """

    def __init__(self, network: ReactionNetwork):
        self.network = network
        self.species_index = {s: i for i, s in enumerate(network.species)}
        n_reactions = len(network.reactions)
        n_species = len(network.species)
        self.stoich = np.zeros((n_reactions, n_species), dtype=np.int64)
        self.order = np.zeros((n_reactions, n_species), dtype=np.int64)
        rates = np.zeros(n_reactions)
        functional: list[tuple[int, Callable[[np.ndarray], np.ndarray]]] = []
        for j, reaction in enumerate(network.reactions):
            for species, need in reaction.reactants:
                col = self.species_index[species]
                self.order[j, col] = need
                self.stoich[j, col] -= need
            for species, made in reaction.products:
                self.stoich[j, self.species_index[species]] += made
            if callable(reaction.rate):
                functional.append(
                    (j, _vectorize_rate_law(reaction.rate, self.species_index)))
            else:
                rates[j] = float(reaction.rate)
        self._rates = rates
        self._functional = functional
        self._functional_set = {j for j, _ in functional}
        # per-reaction list of (column, multiplicity) with need > 0, split
        # into the comb fast paths
        self._reactants: list[tuple[tuple[int, int], ...]] = [
            tuple((self.species_index[s], n) for s, n in r.reactants)
            for r in network.reactions
        ]
        self.initial = np.array(
            [network.initial.get(s, 0) for s in network.species],
            dtype=np.int64)
        self.observable_columns = np.array(
            [self.species_index[o] for o in network.observables],
            dtype=np.intp)
        #: columns of species consumed by at least one reaction -- the
        #: populations whose scale decides the hybrid leap/exact switch
        self.reactant_columns = np.flatnonzero(self.order.any(axis=0))
        #: the propensity matrix as bindable NumPy calls (immutable, so
        #: shared by every simulator of this network)
        self.plan = self._compile_plan()

    def __reduce__(self):
        # the vectorized rate-law closures are not picklable: ship the
        # network and resolve it through the compile cache on the other
        # side, so a task crossing a pipe every quantum compiles once
        return compile_network, (self.network,)

    @property
    def n_reactions(self) -> int:
        return self.stoich.shape[0]

    @property
    def n_species(self) -> int:
        return self.stoich.shape[1]

    def _compile_plan(self) -> list[tuple]:
        """The propensity matrix as a flat list of ``(op, a, b, out)``
        NumPy calls over symbolic operands (bound to buffers by
        :class:`~repro.cwc.kernels.NumpyKernel`), one reaction after
        the other, each writing its own row -- so the ``accumulate``
        down the reaction axis sees the original order.

        Mass action is ``rate * prod_i comb(x_i, need_i)``: ``comb(n,
        1) = n`` needs no call, ``comb(n, 2) = n(n-1)/2`` and the
        falling-factorial product of higher orders yield exactly 0
        whenever a reactant is short, so availability gating is
        implicit.  Functional rates run their :func:`_vectorize_rate_law`
        closure and give the full propensity; their reactant list only
        gates on availability (as in ``Reaction.propensity``).  Operand
        order and association match the scalar expressions, so the
        results are bit-identical.
        """
        plan: list[tuple] = []

        def emit(op, a, b, out):
            plan.append((op, a, b, out))
        laws = dict(self._functional)
        for j, reaction in enumerate(self.network.reactions):
            out, f, s, t = ("a", j), ("f", j), ("s", j), ("t", j)
            law, rate = laws.get(j), reaction.rate
            if law is None:
                h = None
                for col, need in self._reactants[j]:
                    factor = x = ("x", col)
                    if need > 1:
                        factor = f if h is None else s
                        emit(np.subtract, x, 1.0, factor)
                        emit(np.multiply, x, factor, factor)
                        for d in range(2, need):
                            emit(np.subtract, x, float(d), t)
                            emit(np.multiply, factor, t, factor)
                        if need == 2:
                            emit(np.multiply, factor, 0.5, factor)
                        else:
                            emit(np.divide, factor,
                                 float(math.factorial(need)), factor)
                    if h is not None:
                        emit(np.multiply, h, factor, f)
                        factor = f
                    h = factor
                emit(np.multiply, ("k", j), 1.0 if h is None else h, out)
                continue
            emit(_evaluate, law, ("X", 0), out)
            # a one-species law that is +0.0 at zero copies is its own
            # gate on consuming one copy of that species (counts are
            # non-negative integers: short of one means zero)
            own = None
            if isinstance(rate, _ONE_SPECIES_LAWS):
                with np.errstate(all="ignore"):
                    at_zero = law(np.zeros((1, self.n_species)))[0]
                if at_zero == 0.0 and not np.signbit(at_zero):
                    own = (self.species_index[rate.species], 1)
            for col, need in self._reactants[j]:
                if (col, need) != own:
                    emit(_gate, ("x", col), float(need), out)
        return plan

    def propensities_T(self, X: np.ndarray,
                       rates_rows: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """The ``(n_reactions, n_trajectories)`` propensity matrix at the
        batched state ``X`` (non-negative integer counts).

        Transposed layout: each reaction's values are contiguous, which
        makes both the assembly and the cumulative-sum reaction
        selection of the lockstep loop stride-1 operations.

        ``rates_rows`` (optional, ``(n_trajectories, n_reactions)``)
        overrides the mass-action rate constants *per row* -- the fused
        sweep plane packs many parameter points into one batch, each row
        carrying its point's constants.  An elementwise multiply with
        identical operand values is the same IEEE-754 operation as the
        scalar broadcast, so a row whose constants equal the compiled
        ones produces bit-identical propensities.  Functional rate laws
        are not per-row parameterised (sweeps vary mass-action constants
        only); their rows ignore ``rates_rows``.
        """
        return NumpyKernel(self).propensities_T(
            np.asarray(X, dtype=np.float64), rates_rows)

    def propensities(self, X: np.ndarray,
                     rates_rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``(n_trajectories, n_reactions)`` propensity matrix at
        the batched state ``X``."""
        return self.propensities_T(X, rates_rows).T

    def rates_for(self, overrides: "dict[str, float] | None" = None
                  ) -> np.ndarray:
        """One row of mass-action rate constants with named reactions
        overridden (the per-point row of a fused sweep's ``rates_rows``).

        Functional-law reactions cannot be overridden -- their rate is
        not a constant (:meth:`ReactionNetwork.with_rates` enforces the
        same rule for solo runs).
        """
        row = self._rates.copy()
        if overrides:
            by_name = {r.name: j for j, r in
                       enumerate(self.network.reactions)}
            for name, value in overrides.items():
                j = by_name.get(name)
                if j is None:
                    raise KeyError(f"unknown reaction {name!r}")
                if j in self._functional_set:
                    raise ValueError(
                        f"reaction {name!r} has a functional rate law; "
                        "only mass-action constants can be swept")
                row[j] = float(value)
        return row


# ---------------------------------------------------------------------------
# process-level compiled-network cache
# ---------------------------------------------------------------------------

#: compiled networks memoized by content hash; bounded FIFO so a service
#: cycling through many distinct models cannot grow it without limit
_COMPILE_CACHE_CAP = 128
_compile_cache: "dict[str, CompiledNetwork]" = {}
_compile_lock = threading.Lock()
_compile_stats = {"hits": 0, "misses": 0, "uncacheable": 0}


def compile_network(network: Union[ReactionNetwork, "CompiledNetwork"]
                    ) -> "CompiledNetwork":
    """Compile ``network``, memoized per process by content hash.

    Repeated compilations of content-identical networks (every
    ``POST /runs`` of the same model, every point of a parameter sweep
    re-using the base network) return the one shared
    :class:`CompiledNetwork` -- safe because compiled networks are
    immutable after construction and every simulator treats them as
    read-only.  Networks with opaque callable rate laws have no content
    hash and compile fresh each time.  Thread-safe (the service compiles
    from concurrent tenant threads).
    """
    if isinstance(network, CompiledNetwork):
        return network
    key = network.fingerprint()
    if key is None:
        with _compile_lock:
            _compile_stats["uncacheable"] += 1
        return CompiledNetwork(network)
    with _compile_lock:
        cached = _compile_cache.get(key)
        if cached is not None:
            _compile_stats["hits"] += 1
            return cached
    compiled = CompiledNetwork(network)  # compile outside the lock
    with _compile_lock:
        _compile_stats["misses"] += 1
        if key not in _compile_cache:
            while len(_compile_cache) >= _COMPILE_CACHE_CAP:
                _compile_cache.pop(next(iter(_compile_cache)))
            _compile_cache[key] = compiled
        return _compile_cache[key]


def network_cache_stats() -> dict[str, int]:
    """A snapshot of the compile cache counters (hits / misses /
    uncacheable)."""
    with _compile_lock:
        return dict(_compile_stats)


def clear_network_cache() -> None:
    """Drop every memoized compilation and zero the counters (tests)."""
    with _compile_lock:
        _compile_cache.clear()
        for key in _compile_stats:
            _compile_stats[key] = 0


#: largest population the float64 working set holds exactly
MAX_POPULATION = float(2 ** 53)


class PopulationOverflow(ValueError):
    """A trajectory's population left the range in which float64 counts
    are exact integers (``2**53``): the model has escaped (e.g.
    Lotka-Volterra prey under tau-leaping once the predators die out)
    and nothing past this point would be a simulation of it.  The
    simulator that raised must not be advanced further."""


def _require_exact(sim: "BatchFlatSimulator", X: np.ndarray,
                   rows: np.ndarray, times: np.ndarray) -> None:
    """Raise :class:`PopulationOverflow` unless every population in the
    working rows ``X`` (block rows ``rows``, clocks ``times``) is at most
    :data:`MAX_POPULATION`.  NaN (inf - inf of an escaped row) fails the
    comparison too, so the int64 cast behind this check is always
    defined."""
    if X.size and not X.max() <= MAX_POPULATION:
        i, col = np.argwhere(~(X <= MAX_POPULATION))[0]
        raise PopulationOverflow(
            f"trajectory row {rows[i]} of {sim.network.name!r}: "
            f"population of {sim.network.species[col]!r} reached "
            f"{X[i, col]:.6g} at t={times[i]:.6g}, above 2**53 "
            "(float64 counts are no longer exact)")


class _Workspace:
    """The working set of one ``advance_to`` call.

    The rows still short of their target are gathered once, advanced in
    place (float64 counts, exact up to :data:`MAX_POPULATION`; beyond it
    :func:`_require_exact` ends the run) and written back only when they
    retire.  Everything sized by the number
    of active rows lives here -- row state, the exact loop's per-phase
    buffers, the per-stream draw views -- and is rebuilt only by
    :meth:`retire`, so the loop itself allocates nothing between two
    retirements.
    """

    def __init__(self, sim: "BatchFlatSimulator", targets: np.ndarray,
                 n_tallies: int = 0):
        self.sim, self.targets = sim, targets
        active = np.flatnonzero(~sim.exhausted & (sim.times < targets))
        self.active = active
        self.X = sim.counts[active].astype(np.float64)
        self.tw, self.trg = sim.times[active], targets[active]
        self.new_times = np.empty(active.size)
        self.rr = None if sim.row_rates is None else sim.row_rates[active]
        self.rs = None if sim._stream_of is None else sim._stream_of[active]
        #: per-row counters the leap loop adds to steps / leaps /
        #: exact_steps at retirement (the exact loop counts in lockstep)
        self.tally = np.zeros((n_tallies, active.size), dtype=np.int64)
        self._size_buffers()

    def _size_buffers(self) -> None:
        m = self.active.size
        self.e, self.u = np.empty(m), np.empty(m)
        self.flag = np.empty(m, dtype=bool)
        #: (generator, exponential view, uniform view) per RNG stream
        self.spans = [(rng, self.e[lo:hi], self.u[lo:hi]) for rng, lo, hi
                      in self.sim._stream_spans(self.rs)]

    def retire(self, done: np.ndarray, steps: int = 0,
               exhausted: bool = False) -> np.ndarray:
        """Write the ``done`` rows back (each fired ``steps`` times plus
        its tally) and compact the working set; returns the keep mask."""
        sim, idx = self.sim, self.active[done]
        X_done, reached = self.X[done], self.targets[idx]
        _require_exact(sim, X_done, idx, reached)
        sim.counts[idx] = X_done.astype(np.int64)
        sim.times[idx] = reached
        sim.steps[idx] += steps
        for total, new in zip((sim.steps, sim.leaps, sim.exact_steps),
                              self.tally):
            total[idx] += new[done]
        if exhausted:
            sim.exhausted[idx] = True
        keep = ~done
        self.active, self.X = self.active[keep], self.X[keep]
        self.tw, self.trg = self.tw[keep], self.trg[keep]
        self.new_times, self.tally = self.new_times[keep], self.tally[:, keep]
        if self.rr is not None:
            self.rr = self.rr[keep]
        if self.rs is not None:
            self.rs = self.rs[keep]
        self._size_buffers()
        return keep


class BatchFlatSimulator:
    """``n`` independent flat-network trajectories advanced in lockstep.

    State is batched: ``counts`` is an ``(n, n_species)`` integer matrix,
    ``times``/``steps`` are per-trajectory vectors, and a single
    :class:`numpy.random.Generator` supplies all randomness.  The public
    surface mirrors the scalar engines where it can (``advance``,
    ``observe``, ``run``) and adds batched variants (``observe_all``,
    ``run_all``).

    ``method`` selects the stepping algorithm:

    * ``"exact"`` (default) -- one reaction per lockstep iteration, the
      historical bit-pinned direct-method path;
    * ``"tau"`` -- tau-leaping (Gillespie 2001) with the
      Cao-Gillespie-Petzold step-size bound: each iteration every row
      either fires ``Poisson(a_j * tau)`` reactions in one leap or,
      when its CGP tau is worth fewer than ``ssa_threshold`` expected
      SSA steps, takes one exact step instead (the standard fallback);
    * ``"hybrid"`` -- ``"tau"`` plus a population gate: a row leaps
      only while *every* reactant species holds at least
      ``pop_threshold`` copies, so small-count rows (or small-count
      phases of one row) keep exact-SSA accuracy.

    The two leap methods are *distribution-equivalent* to exact SSA
    (epsilon-controlled), not bit-identical -- an inherent property of
    the approximation, covered by KS tests instead of byte compares.
    """

    #: rejected leaps halve tau and redraw at most this many times
    #: before the row falls back to one exact SSA step
    MAX_LEAP_ATTEMPTS = 12

    #: stepping algorithms (mirrored by ``WorkflowConfig.METHODS`` minus
    #: the scalar-only ``"first"``)
    BATCH_METHODS = ("exact", "tau", "hybrid")

    def __init__(self, network: Union[ReactionNetwork, CompiledNetwork],
                 n_trajectories: int, seed: Optional[int] = None,
                 kernel: str = "numpy",
                 row_rates: Optional[np.ndarray] = None,
                 rng_streams: Optional[Sequence[tuple[int, Any]]] = None,
                 method: str = "exact", epsilon: float = 0.03,
                 ssa_threshold: float = 10.0,
                 pop_threshold: float = 50.0):
        if n_trajectories < 1:
            raise ValueError(
                f"need >= 1 trajectory, got {n_trajectories}")
        if method not in self.BATCH_METHODS:
            raise ValueError(
                f"unknown method {method!r}; pick one of "
                f"{', '.join(self.BATCH_METHODS)}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if ssa_threshold <= 0.0:
            raise ValueError(
                f"ssa_threshold must be > 0, got {ssa_threshold}")
        if pop_threshold < 0.0:
            raise ValueError(
                f"pop_threshold must be >= 0, got {pop_threshold}")
        self.method = method
        self.epsilon = float(epsilon)
        self.ssa_threshold = float(ssa_threshold)
        self.pop_threshold = float(pop_threshold)
        if isinstance(network, CompiledNetwork):
            self.compiled = network
        else:
            self.compiled = CompiledNetwork(network)
        self.network = self.compiled.network
        self.n = n_trajectories
        self.counts = np.tile(self.compiled.initial, (n_trajectories, 1))
        self.times = np.zeros(n_trajectories)
        self.steps = np.zeros(n_trajectories, dtype=np.int64)
        #: per-trajectory committed leaps / exact fallback steps (leap
        #: methods only; ``steps`` counts reaction *firings* either way)
        self.leaps = np.zeros(n_trajectories, dtype=np.int64)
        self.exact_steps = np.zeros(n_trajectories, dtype=np.int64)
        #: trajectories whose total propensity hit zero (the state can no
        #: longer change, so exhaustion is permanent)
        self.exhausted = np.zeros(n_trajectories, dtype=bool)
        #: per-row mass-action rate constants, ``(n, n_reactions)`` --
        #: the fused sweep plane's parameter axis (None: every row uses
        #: the compiled constants, the historical single-point behaviour)
        if row_rates is not None:
            row_rates = np.ascontiguousarray(row_rates, dtype=np.float64)
            expected = (n_trajectories, self.compiled.n_reactions)
            if row_rates.shape != expected:
                raise ValueError(
                    f"row_rates shape {row_rates.shape} != {expected}")
        self.row_rates = row_rates
        # RNG streams: by default one generator drives the whole block
        # (bit-compatible with every pre-sweep run).  ``rng_streams``
        # splits the block into consecutive row groups, each drawing from
        # its own generator in the solo block's phase order -- the
        # discipline that makes a fused multi-point block bit-identical,
        # per point, to the solo runs it replaces.
        if rng_streams is None:
            self.rng = np.random.default_rng(seed)
            self._streams: list[np.random.Generator] = [self.rng]
            self._stream_of: Optional[np.ndarray] = None
        else:
            sizes = [int(size) for size, _ in rng_streams]
            if any(size < 1 for size in sizes):
                raise ValueError("every rng stream needs >= 1 row")
            if sum(sizes) != n_trajectories:
                raise ValueError(
                    f"rng streams cover {sum(sizes)} rows, "
                    f"block has {n_trajectories}")
            self._streams = [
                s if isinstance(s, np.random.Generator)
                else np.random.default_rng(s)
                for _, s in rng_streams]
            self._stream_of = np.repeat(
                np.arange(len(sizes), dtype=np.int64), sizes)
            self.rng = self._streams[0]
        #: inner-loop kernel name; the three hot computations always go
        #: through the kernel object (repro.cwc.kernels).  Every RNG draw
        #: stays right here in advance_to regardless, so the numba kernel
        #: reproduces the numpy trajectories bit for bit.
        self.kernel_name = kernel
        # built now to fail fast, not mid-run
        self._kernel = make_kernel(kernel, self.compiled)

    def __getstate__(self) -> dict:
        # kernel objects hold workspace buffers / jitted dispatchers /
        # device handles; ship the name, rebuild on first use over there
        return {**self.__dict__, "_kernel": None}

    @property
    def kernel(self):
        if not self._kernel:
            self._kernel = make_kernel(self.kernel_name, self.compiled)
        return self._kernel

    @property
    def model(self) -> ReactionNetwork:
        return self.network

    @property
    def observable_names(self) -> tuple[str, ...]:
        return self.network.observables

    @property
    def time(self) -> float:
        """The lockstep clock (minimum over members, matching the scalar
        interface when all members share their targets)."""
        return float(self.times.min())

    @property
    def total_steps(self) -> int:
        return int(self.steps.sum())

    # ------------------------------------------------------------------
    # lockstep advancing
    # ------------------------------------------------------------------
    def advance(self, quantum: Union[float, np.ndarray]) -> np.ndarray:
        """Advance every trajectory by up to ``quantum`` simulated time
        units (scalar, or one value per trajectory); returns ``times``."""
        targets = self.times + quantum
        return self.advance_to(targets)

    def advance_to(self, targets: np.ndarray) -> np.ndarray:
        """Advance every trajectory to its own absolute time target.

        Exhausted trajectories jump straight to their target (matching
        :meth:`FlatSimulator.step` semantics for a zero total propensity).

        The loop operates on a *compacted* working set: the active rows
        are gathered once, advanced in place (float64 counts, exact for
        any realistic population), and written back only when a
        trajectory retires -- so the per-iteration cost is pure SSA math,
        with no full-state gather/scatter.
        """
        targets = np.broadcast_to(np.asarray(targets, dtype=np.float64),
                                  (self.n,)).copy()
        np.maximum(self.times, targets, out=targets)
        self.times[self.exhausted] = targets[self.exhausted]
        if self.method != "exact":
            return self._advance_to_leap(targets)
        ws = _Workspace(self, targets)
        kernel = self.kernel
        stoich = self.compiled.stoich.astype(np.float64)
        # lockstep: every row still active fired once per past iteration
        steps = 0
        while ws.active.size:
            # (n_reactions, m) cumulative propensities: the running sums
            # drive reaction selection and their last row is the totals
            cumulative = kernel.propensities_cumsum_T(ws.X, ws.rr)
            totals = cumulative[-1]
            if np.count_nonzero(np.less_equal(totals, 0.0, out=ws.flag)):
                # no draw happened yet: start over on the survivors
                ws.retire(ws.flag, steps, exhausted=True)
                continue

            for rng, e, _ in ws.spans:
                rng.standard_exponential(out=e)
            taus = np.divide(ws.e, totals, out=ws.e)
            new_times = np.add(ws.tw, taus, out=ws.new_times)
            if np.count_nonzero(
                    np.greater_equal(new_times, ws.trg, out=ws.flag)):
                # exact: discard the residual exponential (memoryless);
                # a landing exactly on the target also retires
                cumulative = cumulative[:, ws.retire(ws.flag, steps)]
                if not ws.active.size:
                    break
                totals = cumulative[-1]

            for rng, _, u in ws.spans:
                rng.random(out=u)
            picks = np.multiply(ws.u, totals, out=ws.u)
            kernel.apply_stoich(ws.X, stoich,
                                kernel.select_events(cumulative, picks))
            ws.tw, ws.new_times = ws.new_times, ws.tw
            steps += 1
        return self.times

    def _advance_to_leap(self, targets: np.ndarray) -> np.ndarray:
        """The tau/hybrid lockstep loop (``targets`` pre-clamped by
        :meth:`advance_to`).

        Same working-set discipline as the exact loop -- gather the
        active rows once, compact on retirement -- but each iteration
        splits the rows: rows whose CGP tau covers at least
        ``ssa_threshold`` expected SSA steps (and, under ``"hybrid"``,
        whose every reactant population is at or above
        ``pop_threshold``) fire a whole ``Poisson(a_j * tau)`` leap;
        the rest take one exact SSA step.  A leap that would drive any
        population negative is rejected, its tau halved and redrawn, up
        to :data:`MAX_LEAP_ATTEMPTS` times before falling back to an
        exact step.  Leaps are clamped to the row's remaining time, so
        quantum boundaries are honoured exactly like the exact path.
        """
        ws = _Workspace(self, targets, n_tallies=3)
        kernel = self.kernel
        stoich = self.compiled.stoich.astype(np.float64)
        rcols = self.compiled.reactant_columns
        while ws.active.size:
            X, tw, trg, rs = ws.X, ws.tw, ws.trg, ws.rs
            new_steps, new_leaps, new_exact = ws.tally
            cumulative = kernel.propensities_cumsum_T(X, ws.rr)
            totals = cumulative[-1]
            dead = totals <= 0.0
            if dead.any():
                # no draw happened yet: start over on the survivors
                ws.retire(dead, exhausted=True)
                continue

            # raw propensities back out of the running sums (tau is an
            # approximation bound; no bit-pinning requirement here)
            a = np.empty_like(cumulative)
            a[0] = cumulative[0]
            a[1:] = cumulative[1:] - cumulative[:-1]
            tau_cgp = kernel.leap_tau(a, X, stoich, self.epsilon)
            leap = tau_cgp * totals >= self.ssa_threshold
            if self.method == "hybrid" and rcols.size:
                leap &= X[:, rcols].min(axis=1) >= self.pop_threshold

            retire_mask = np.zeros(tw.size, dtype=bool)

            def exact_step(sub: np.ndarray) -> None:
                """One exact SSA step for the row subset ``sub``
                (sorted, so per-stream draw groups stay contiguous)."""
                taus = self._draw(None if rs is None else rs[sub],
                                  sub.size, False) / totals[sub]
                nt = tw[sub] + taus
                over = nt >= trg[sub]
                retire_mask[sub[over]] = True
                go = sub[~over]
                if not go.size:
                    return
                picks = self._draw(None if rs is None else rs[go],
                                   go.size, True) * totals[go]
                chosen = kernel.select_events(
                    np.ascontiguousarray(cumulative[:, go]), picks)
                Xg = X[go]
                kernel.apply_stoich(Xg, stoich, chosen)
                X[go] = Xg
                tw[go] = nt[~over]
                new_steps[go] += 1
                new_exact[go] += 1

            exact_rows = np.flatnonzero(~leap)
            if exact_rows.size:
                exact_step(exact_rows)

            pending = np.flatnonzero(leap)
            if pending.size:
                # clamp each leap to the row's remaining span so quantum
                # boundaries are honoured (no residual to discard: the
                # leap is a closed-interval update, not a waiting time)
                ptau = np.minimum(tau_cgp[pending], trg[pending] - tw[pending])
                for _attempt in range(self.MAX_LEAP_ATTEMPTS):
                    lam = a[:, pending].T * ptau[:, None]
                    fires = self._draw_poisson(
                        None if rs is None else rs[pending], lam)
                    Xp = X[pending]
                    ok = kernel.leap_fire(Xp, stoich, fires)
                    X[pending] = Xp
                    committed = pending[ok]
                    if committed.size:
                        tw[committed] += ptau[ok]
                        # rejected rows are unchanged, so one reduce over
                        # all of Xp vets exactly the committed ones
                        _require_exact(self, Xp, ws.active[pending],
                                       tw[pending])
                        new_steps[committed] += fires[ok].sum(
                            axis=1).astype(np.int64)
                        new_leaps[committed] += 1
                        done = tw[committed] >= trg[committed] - 1e-12
                        retire_mask[committed[done]] = True
                    rej = ~ok
                    if not rej.any():
                        break
                    pending = pending[rej]
                    ptau = ptau[rej] * 0.5
                else:
                    # still rejecting after MAX_LEAP_ATTEMPTS halvings:
                    # the state is effectively small-count, take one
                    # exact step (propensities are still current -- the
                    # rejected rows never committed a change)
                    exact_step(pending)

            if retire_mask.any():
                ws.retire(retire_mask)
        return self.times

    def _stream_spans(self, rs: Optional[np.ndarray]
                      ) -> list[tuple[np.random.Generator, int, Any]]:
        """``(generator, lo, hi)`` for every RNG stream owning rows of a
        working subset, ``rs`` being the rows' stream ids.

        Single-stream blocks (``rs`` None) have one span over
        everything, so they draw once from ``self.rng`` (the historical
        call, bit-compatible).  In multi-stream blocks ``rs`` stays
        sorted under keep-compaction and sorted sub-indexing, so each
        group is one contiguous span and receives exactly the array its
        solo block would have drawn at this phase -- same generator,
        same call, same size.
        """
        if rs is None:
            return [(self.rng, 0, None)]
        bounds = np.searchsorted(
            rs, np.arange(len(self._streams) + 1)).tolist()
        return [(rng, lo, hi) for rng, lo, hi
                in zip(self._streams, bounds, bounds[1:]) if hi > lo]

    def _draw_poisson(self, rs_sub: Optional[np.ndarray],
                      lam: np.ndarray) -> np.ndarray:
        """Poisson firing counts for the pending leap rows.

        ``lam`` is ``(k, n_reactions)``; returns integer-valued float64
        (the dtype :func:`numpy_leap_fire` scatters exactly).  Stream
        groups draw separately like :meth:`_draw`, so a fused block's
        per-point streams stay independent under leaping too.
        """
        out = np.empty(lam.shape)
        for rng, lo, hi in self._stream_spans(rs_sub):
            out[lo:hi] = rng.poisson(lam[lo:hi])
        return out

    def _draw(self, rs: Optional[np.ndarray], m: int,
              uniform: bool) -> np.ndarray:
        """One phase's random draws for a subset of ``m`` active rows
        (the leap loop's exact steps; see :meth:`_stream_spans`)."""
        draws = np.empty(m)
        for rng, lo, hi in self._stream_spans(rs):
            if uniform:
                rng.random(out=draws[lo:hi])
            else:
                rng.standard_exponential(out=draws[lo:hi])
        return draws

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_all(self) -> np.ndarray:
        """``(n, n_observables)`` float matrix of the current observables."""
        return self.counts[:, self.compiled.observable_columns].astype(
            np.float64)

    def observe(self, trajectory: int = 0) -> tuple[float, ...]:
        return tuple(
            float(v)
            for v in self.counts[trajectory,
                                 self.compiled.observable_columns])

    def state_view(self, trajectory: int) -> StateView:
        """A scalar-engine-style state view of one member (for rate-law
        interop and debugging)."""
        counts = {s: int(self.counts[trajectory, i])
                  for s, i in self.compiled.species_index.items()}
        return StateView(counts)

    # ------------------------------------------------------------------
    # whole-run convenience (the batched analog of FlatSimulator.run)
    # ------------------------------------------------------------------
    def run_all(self, t_end: float, sample_every: float) -> list[SSAResult]:
        """Run every trajectory to ``t_end``, sampling on the shared grid;
        returns one :class:`SSAResult` per trajectory."""
        results = [SSAResult(model_name=self.network.name,
                             observable_names=self.network.observables)
                   for _ in range(self.n)]
        next_sample = float(self.times.min())
        while True:
            self.advance_to(np.full(self.n, next_sample))
            values = self.observe_all().tolist()  # plain floats
            for i, result in enumerate(results):
                result.times.append(next_sample)
                result.samples.append(tuple(values[i]))
            if next_sample >= t_end:
                break
            next_sample = min(next_sample + sample_every, t_end)
        for i, result in enumerate(results):
            result.steps = int(self.steps[i])
        return results

    def __repr__(self) -> str:
        return (f"<BatchFlatSimulator {self.network.name!r} n={self.n} "
                f"t=[{self.times.min():.4g}, {self.times.max():.4g}] "
                f"steps={self.total_steps}>")


def batch_simulator(model: Union[Model, ReactionNetwork],
                    n_trajectories: int,
                    seed: Optional[int] = None,
                    kernel: str = "numpy",
                    method: str = "exact") -> BatchFlatSimulator:
    """Build a batch simulator from a network or a compartment-free model
    (mirrors the ``engine="flat"`` coercion of ``make_tasks``)."""
    if isinstance(model, ReactionNetwork):
        network = model
    else:
        network = ReactionNetwork.from_model(model)
    return BatchFlatSimulator(network, n_trajectories, seed=seed,
                              kernel=kernel, method=method)
