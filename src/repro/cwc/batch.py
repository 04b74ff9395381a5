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
  exponential waiting times at once, then selects and applies one
  reaction per trajectory by cumulative-sum inversion (one exact matmul
  on the numpy kernel).  The tau-leaping methods instead leap the whole
  working set at once, in place, through the kernel's leap primitives.
  In both loops a trajectory that reaches its time target is written
  back at once and stays as a masked *dead lane* without stalling the
  rest of the batch -- under leaping a lane with a zero span, whose
  Poisson draws touch no generator; the working set is compacted when
  half of it is dead (an exhausted trajectory leaves at once).

Stopping at a quantum boundary remains statistically exact for every
member: the exponential clock is memoryless, so the partially elapsed
waiting time of a trajectory that overshoots its target is discarded and
resampled on the next call -- the same argument
:meth:`repro.cwc.gillespie.SampledSimulator.advance` relies on.
"""

from __future__ import annotations

import math
import sys
import threading
import weakref
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.cwc.kernels import NumpyKernel, make_kernel
from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork, StateView, \
    build_direct_loop
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


def _law_calls(rate, index: dict[str, int], j: int) -> Optional[list]:
    """A law of :mod:`repro.cwc.rates` as in-place plan calls into row
    ``j`` and its scratch rows -- :func:`_vectorize_rate_law`'s
    expression, operation for operation (``omega * v * kn`` is one
    Python float either way) -- or None for the laws left to their
    closure (:class:`Product`, opaque callables)."""
    out, s, t = ("a", j), ("s", j), ("t", j)
    if isinstance(rate, Constant):
        return [(np.multiply, float(rate.value), 1.0, out)]
    if isinstance(rate, Linear):
        return [(np.multiply, float(rate.k), ("x", index[rate.species]), out)]
    if not isinstance(rate, (HillRepression, HillActivation,
                             MichaelisMenten)):
        return None
    x, omega, v = ("x", index[rate.species]), float(rate.omega), \
        float(rate.v)
    if isinstance(rate, MichaelisMenten):
        K = float(rate.K)
        return [(np.divide, x, omega, s), (np.multiply, omega * v, s, t),
                (np.add, K, s, s), (np.divide, t, s, out)]
    n = float(rate.n)
    kn = float(rate.K) ** n
    if isinstance(rate, HillRepression):
        return [(np.divide, x, omega, s), (np.power, s, n, s),
                (np.add, kn, s, s), (np.divide, omega * v * kn, s, out)]
    return [(np.divide, x, omega, s), (np.power, s, n, s),
            (np.multiply, omega * v, s, t), (np.add, kn, s, s),
            (np.divide, t, s, out)]


def _nonnegative_law(rate) -> bool:
    """Whether ``rate`` is >= 0 (or NaN) at every non-negative count:
    a law of :mod:`repro.cwc.rates` with non-negative parameters (and a
    positive ``omega``); an opaque callable cannot be told."""
    if isinstance(rate, Product):
        return all(_nonnegative_law(side) if callable(side) else side >= 0
                   for side in (rate.left, rate.right))
    if isinstance(rate, Constant):
        return rate.value >= 0
    if isinstance(rate, Linear):
        return rate.k >= 0
    if isinstance(rate, (HillRepression, HillActivation, MichaelisMenten)):
        return rate.v >= 0 and rate.K >= 0 and rate.omega > 0
    return False


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
        #: every propensity is >= 0 at non-negative counts, so the
        #: running sums never decrease (what the numpy kernel's one-matmul
        #: pick and fire needs)
        self.nonnegative = bool((rates >= 0.0).all()) and all(
            _nonnegative_law(r.rate) for r in network.reactions
            if callable(r.rate))
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
        the other, each writing its own row -- so the running sums down
        the reaction axis see the original order.

        Mass action is ``rate * prod_i comb(x_i, need_i)``: ``comb(n,
        1) = n`` needs no call, ``comb(n, 2) = n(n-1)/2`` and the
        falling-factorial product of higher orders yield exactly 0
        whenever a reactant is short, so availability gating is
        implicit.  Functional rates give the full propensity, the
        laws of :mod:`repro.cwc.rates` as in-place calls
        (:func:`_law_calls`), the others through their
        :func:`_vectorize_rate_law` closure; their reactant list only
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
            calls = _law_calls(rate, self.species_index, j)
            if calls is None:
                emit(_evaluate, law, ("X", 0), out)
            else:
                plan.extend(calls)
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


#: generated scalar direct-method loops (:func:`direct_loop`), under the
#: same lock and cap; loops of networks without a content hash are kept
#: per network object
_loop_cache: "dict[tuple, Callable]" = {}
_loop_by_object: "weakref.WeakKeyDictionary[ReactionNetwork, Callable]" = \
    weakref.WeakKeyDictionary()


def direct_loop(network: ReactionNetwork) -> Callable:
    """``network``'s generated direct-method loop
    (:func:`~repro.cwc.network.build_direct_loop`), memoized per process
    by content hash like :func:`compile_network`: generating one costs
    about a millisecond, and every scalar task of a run shares it.
    Thread-safe.
    """
    fingerprint = network.fingerprint()
    if fingerprint is None:
        cache, key = _loop_by_object, network
    else:
        # the hash prints an int constant like the float it equals; the
        # loop multiplies by the object itself, so its type is part of
        # the key
        cache, key = _loop_cache, (fingerprint, tuple(
            type(r.rate) for r in network.reactions))
    with _compile_lock:
        loop = cache.get(key)
    if loop is not None:
        return loop
    loop = build_direct_loop(network)  # generate outside the lock
    with _compile_lock:
        if key not in cache:
            while cache is _loop_cache and \
                    len(cache) >= _COMPILE_CACHE_CAP:
                cache.pop(next(iter(cache)))
            cache[key] = loop
        return cache[key]


def network_cache_stats() -> dict[str, int]:
    """A snapshot of the compile cache counters (hits / misses /
    uncacheable)."""
    with _compile_lock:
        return dict(_compile_stats)


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
    if X.size and not np.maximum.reduce(X, axis=None) <= MAX_POPULATION:
        i, col = np.argwhere(~(X <= MAX_POPULATION))[0]
        raise PopulationOverflow(
            f"trajectory row {rows[i]} of {sim.network.name!r}: "
            f"population of {sim.network.species[col]!r} reached "
            f"{X[i, col]:.6g} at t={times[i]:.6g}, above 2**53 "
            "(float64 counts are no longer exact)")


class _Workspace:
    """The working set of one ``advance_to`` call.

    The rows still short of their target are gathered once and advanced
    in place (float64 counts, exact up to :data:`MAX_POPULATION`; beyond
    it :func:`_require_exact` ends the run).  Everything sized by the
    number of rows lives here -- row state and each loop's per-phase
    buffers (:class:`_ExactWorkspace`, :class:`_LeapWorkspace`) -- and
    is rebuilt only by :meth:`_compact`, so the loops themselves
    allocate nothing in between.

    A row is written back as soon as it is done.  :meth:`retire` then
    drops it from the working set at once (an exhausted row);
    :meth:`kill` keeps it as a *dead lane* -- no draws, no change of
    state -- until dead lanes are at least as many as live ones, so a
    loop compacts a block about ``log2(rows)`` times per call instead of
    once per retirement.
    """

    def __init__(self, sim: "BatchFlatSimulator", targets: np.ndarray,
                 n_tallies: int = 0):
        self.sim, self.targets = sim, targets
        active = np.flatnonzero(~sim.exhausted & (sim.times < targets))
        self.active = active
        self.X = sim.counts[active].astype(np.float64)
        self.tw, self.trg = sim.times[active], targets[active]
        self.rr = None if sim.row_rates is None else sim.row_rates[active]
        self.rs = None if sim._stream_of is None else sim._stream_of[active]
        #: per-row counters the leap loop adds to steps / leaps /
        #: exact_steps at write-back (the exact loop counts in lockstep)
        self.tally = np.zeros((n_tallies, active.size), dtype=np.int64)
        self._size_buffers()

    def _size_buffers(self) -> None:
        m = self.active.size
        self.flag = np.empty(m, dtype=bool)
        #: lanes written back but still in the working set (a new array
        #: whenever it changes), and how many lanes are not
        self.dead, self.live = np.empty(0, dtype=np.intp), m
        self.alive = np.ones(m, dtype=bool)

    def _write_back(self, lanes: np.ndarray, steps: int,
                    exhausted: bool) -> None:
        """Write ``lanes`` to the simulator: each fired ``steps`` times
        plus its tally and reached its target."""
        sim, idx = self.sim, self.active[lanes]
        X_done, reached = self.X[lanes], self.targets[idx]
        _require_exact(sim, X_done, idx, reached)
        sim.counts[idx] = X_done.astype(np.int64)
        sim.times[idx] = reached
        sim.steps[idx] += steps
        for total, new in zip((sim.steps, sim.leaps, sim.exact_steps),
                              self.tally):
            total[idx] += new[lanes]
        if exhausted:
            sim.exhausted[idx] = True

    def retire(self, done: np.ndarray, steps: int = 0,
               exhausted: bool = False) -> None:
        """Write the ``done`` rows back and compact the working set
        (dead lanes leave with them)."""
        self._write_back(done.nonzero()[0], steps, exhausted)
        self.alive &= ~done
        self._compact()

    def kill(self, done: np.ndarray, steps: int = 0) -> None:
        """Write the ``done`` rows back and keep them as dead lanes
        (:meth:`_park` makes them inert for the loop at hand)."""
        lanes = done.nonzero()[0]
        self._write_back(lanes, steps, False)
        self.alive[lanes] = False
        self.dead = np.concatenate((self.dead, lanes))
        self.live -= lanes.size
        self._park(lanes)

    def _park(self, lanes: np.ndarray) -> None:
        raise NotImplementedError

    def compact_if_half_dead(self) -> None:
        if self.dead.size >= self.live:
            self._compact()

    def _compact(self) -> None:
        keep = self.alive
        self.active, self.X = self.active[keep], self.X[keep]
        self.tw, self.trg = self.tw[keep], self.trg[keep]
        self.tally = self.tally[:, keep]
        if self.rr is not None:
            self.rr = self.rr[keep]
        if self.rs is not None:
            self.rs = self.rs[keep]
        self._size_buffers()


class _ExactWorkspace(_Workspace):
    """The exact loop's working set: per-phase draw buffers and the
    per-stream draw views over the live lanes.

    A dead lane draws nothing: each stream draws one value per live row
    into a compact buffer that :meth:`scatter` copies to the live lanes,
    so every generator sees the calls and sizes of a fully compacted
    working set.  The per-stream live counts give the draw views
    without gathering the live lanes' stream ids.
    """

    def _size_buffers(self) -> None:
        super()._size_buffers()
        m = self.active.size
        self.e, self.u, self.ec, self.uc = np.empty((4, m))
        self.new_times, self.picks = np.empty(m), np.empty(m)
        self.lanes = None
        self.per_stream = [m] if self.rs is None else np.bincount(
            self.rs, minlength=len(self.sim._streams)).tolist()
        self._spread(self.e, self.u)

    def _spread(self, e: np.ndarray, u: np.ndarray) -> None:
        """Point ``spans`` -- one ``(generator, exponential view,
        uniform view)`` per stream with live rows -- at consecutive
        pieces of ``e`` and ``u``, one per stream's live rows."""
        self.spans, hi = [], 0
        for rng, count in zip(self.sim._streams, self.per_stream):
            if count:
                lo, hi = hi, hi + count
                self.spans.append((rng, e[lo:hi], u[lo:hi]))

    def _park(self, lanes: np.ndarray) -> None:
        """A zero exponential keeps a dead lane's clock, an infinite
        target keeps it from retiring again and a uniform of -1 makes
        its pick negative; the kernel's ``fire`` leaves the ``dead``
        lanes unfired.  Every value stays finite and in range."""
        self.e[lanes], self.u[lanes], self.trg[lanes] = 0.0, -1.0, np.inf
        if not self.live:
            return
        self.lanes = self.alive.nonzero()[0]
        if self.rs is None:
            self.per_stream[0] -= lanes.size
        else:
            for stream in self.rs[lanes].tolist():
                self.per_stream[stream] -= 1
        self._spread(self.ec[:self.live], self.uc[:self.live])

    def scatter(self, buffer: np.ndarray, compact: np.ndarray) -> None:
        """Copy one phase's compact draws to the live lanes."""
        if self.lanes is not None:
            buffer[self.lanes] = compact[:self.live]


class _LeapWorkspace(_Workspace):
    """The leap loop's working set: the raw propensities, leap spans,
    Poisson means and firing counts of every lane, and one
    ``(generator, means, firing counts)`` view per stream over the
    whole working set.

    A dead lane keeps its place with a zero leap span (its target
    becomes its clock), so its Poisson means are 0 and its draws touch
    no generator: the live rows draw exactly what a fully compacted
    working set would, and the per-stream views never change between
    compactions.
    """

    def _size_buffers(self) -> None:
        super()._size_buffers()
        m, (n_reactions, _) = self.active.size, self.sim.compiled.stoich.shape
        self.a, self.lam_T = np.empty((2, n_reactions, m))
        self.fires = np.empty((m, n_reactions))
        self.ones = np.ones(n_reactions)
        self.span, self.product, self.fired = np.empty((3, m))
        self.leap, self.done = np.empty((2, m), dtype=bool)
        lam = self.lam_T.T
        self.spans = [(rng, lam[lo:hi], self.fires[lo:hi])
                      for rng, lo, hi in self.sim._stream_spans(self.rs)]

    def _park(self, lanes: np.ndarray) -> None:
        self.trg[lanes] = self.tw[lanes]


class BatchFlatSimulator:
    """``n`` independent flat-network trajectories advanced in lockstep.

    State is batched: ``counts`` is an ``(n, n_species)`` integer matrix,
    ``times``/``steps`` are per-trajectory vectors, and a single
    :class:`numpy.random.Generator` supplies all randomness.  The public
    surface mirrors the scalar engines where it can (``advance``,
    ``observe``) and is the block-of-``n`` surface a
    :class:`~repro.sim.task.SimulationTask` drives (``n``,
    ``advance_to``, ``observe_all``, ``total_steps``).

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
        # device handles; ship the name, rebuild on first use over there.
        # A pickle writes equal strs once only when they are one object:
        # the name ships interned, as a literal and a module name are, so
        # an unpickled simulator pickles to the same bytes
        return {**self.__dict__, "_kernel": None,
                "kernel_name": sys.intern(self.kernel_name)}

    @property
    def kernel(self):
        if not self._kernel:
            self._kernel = make_kernel(self.kernel_name, self.compiled)
        return self._kernel

    @property
    def network(self) -> ReactionNetwork:
        # read through ``compiled``, never held twice: an unpickled
        # ``compiled`` resolves through the compile cache to the network
        # that compiled first, so a second reference would pickle as a
        # second network and a task's first pickle would differ from
        # its second
        return self.compiled.network

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
        ws = _ExactWorkspace(self, targets)
        kernel = self.kernel
        # lockstep: every live row fired once per past iteration
        steps = 0
        while ws.live:
            ws.compact_if_half_dead()
            # (n_reactions, m) cumulative propensities: the running sums
            # drive reaction selection and their last row is the totals
            cumulative = kernel.propensities_cumsum_T(ws.X, ws.rr)
            totals = cumulative[-1]
            if np.count_nonzero(np.less_equal(totals, 0.0, out=ws.flag)):
                # no draw happened yet: start over on the survivors (a
                # dead lane's total stays that of a live step: > 0)
                ws.retire(ws.flag, steps, exhausted=True)
                continue

            for rng, e, _ in ws.spans:
                rng.standard_exponential(out=e)
            ws.scatter(ws.e, ws.ec)
            taus = np.divide(ws.e, totals, out=ws.e)
            new_times = np.add(ws.tw, taus, out=ws.new_times)
            if np.count_nonzero(
                    np.greater_equal(new_times, ws.trg, out=ws.flag)):
                # exact: discard the residual exponential (memoryless);
                # a landing exactly on the target also retires
                ws.kill(ws.flag, steps)
                if not ws.live:
                    break

            for rng, _, u in ws.spans:
                rng.random(out=u)
            ws.scatter(ws.u, ws.uc)
            kernel.fire(ws.X, cumulative,
                        np.multiply(ws.u, totals, out=ws.picks), ws.dead)
            ws.tw, ws.new_times = ws.new_times, ws.tw
            steps += 1
        return self.times

    def _advance_to_leap(self, targets: np.ndarray) -> np.ndarray:
        """The tau/hybrid lockstep loop (``targets`` pre-clamped by
        :meth:`advance_to`).

        Each iteration splits the live rows: rows whose CGP tau covers
        at least ``ssa_threshold`` expected SSA steps (and, under
        ``"hybrid"``, whose every reactant population is at or above
        ``pop_threshold``) fire a whole ``Poisson(a_j * tau)`` leap;
        the rest take one exact SSA step first.  Leaps are clamped to
        the row's remaining time, so quantum boundaries are honoured
        exactly like the exact path.

        The leap itself runs over the whole working set, in place and
        without gathers: a row that does not leap this iteration (an
        exact step, a dead lane) has a zero span, so its Poisson means
        are 0, it draws nothing and its counts stay put; an iteration
        in which no row leaps skips the leap.  A leap that would drive
        any population negative is rejected, its tau halved and redrawn
        on the rejected rows alone, up to
        :data:`MAX_LEAP_ATTEMPTS` attempts before falling back to an
        exact step.  A row that reaches its target is written back at
        once and stays as a dead lane until half the working set is
        dead (an exhausted row leaves at once).
        """
        ws = _LeapWorkspace(self, targets, n_tallies=3)
        kernel = self.kernel
        stoich = self.compiled.stoich.astype(np.float64)
        rcols = self.compiled.reactant_columns
        hybrid = self.method == "hybrid" and rcols.size
        while ws.live:
            ws.compact_if_half_dead()
            X, tw, trg, a, span, leap, done = \
                ws.X, ws.tw, ws.trg, ws.a, ws.span, ws.leap, ws.done
            new_steps, new_leaps, _ = ws.tally
            cumulative = kernel.propensities_cumsum_T(X, ws.rr)
            totals = cumulative[-1]
            exhausted = np.less_equal(totals, 0.0, out=ws.flag)
            if ws.dead.size:
                # a dead lane is done with this call whatever its state
                exhausted &= ws.alive
            if np.count_nonzero(exhausted):
                # no draw happened yet: start over on the survivors
                ws.retire(exhausted, exhausted=True)
                continue

            # raw propensities back out of the running sums, in place
            a[0] = cumulative[0]
            np.subtract(cumulative[1:], cumulative[:-1], out=a[1:])
            tau_cgp = kernel.leap_tau(a, X, stoich, self.epsilon)
            if ws.dead.size:
                tau_cgp[ws.dead] = 0.0  # no leap (and no 0 * inf)
            np.greater_equal(np.multiply(tau_cgp, totals, out=ws.product),
                             self.ssa_threshold, out=leap)
            if hybrid:
                leap &= X[:, rcols].min(axis=1) >= self.pop_threshold
            # clamp each leap to the row's remaining span so quantum
            # boundaries are honoured (no residual to discard: the leap
            # is a closed-interval update, not a waiting time); a dead
            # lane's target is its clock
            np.minimum(tau_cgp, np.subtract(trg, tw, out=span), out=span)

            over = pending = None
            leaping = np.count_nonzero(leap)
            if leaping < ws.live:
                exact_rows = np.flatnonzero(~leap & ws.alive)
                span[exact_rows] = 0.0
                over = self._leap_exact_step(ws, exact_rows, cumulative,
                                             stoich)

            if leaping:
                # one leap over the whole working set (the means drawn
                # through a transposed view: a generator walks any
                # array in row-major order of its shape)
                np.multiply(a, span, out=ws.lam_T)
                for rng, lam, fires in ws.spans:
                    fires[...] = rng.poisson(lam)
                ok = kernel.leap_fire(X, stoich, ws.fires)
                if np.count_nonzero(ok) < ok.size:
                    # rejected rows commit nothing now and retry below
                    pending = np.flatnonzero(~ok)
                    retry = span[pending] * 0.5
                    span[pending], ws.fires[pending], leap[pending] = \
                        0.0, 0.0, False
                np.add(tw, span, out=tw)
                _require_exact(self, X, ws.active, tw)
                # firings per row: integer-valued, so exact in any order
                np.add(new_steps,
                       np.matmul(ws.fires, ws.ones, out=ws.fired),
                       out=new_steps, casting="unsafe")
                np.add(new_leaps, leap, out=new_leaps)
                np.greater_equal(tw,
                                 np.subtract(trg, 1e-12, out=ws.product),
                                 out=done)
                done &= leap
            else:
                # every live row stepped exactly (or nothing is left)
                done.fill(False)
            if over is not None:
                done[over] = True
            if pending is not None:
                self._leap_retries(ws, pending, retry, cumulative, stoich)
            if np.count_nonzero(done):
                ws.kill(done)
        return self.times

    def _leap_retries(self, ws: _LeapWorkspace, pending: np.ndarray,
                      ptau: np.ndarray, cumulative: np.ndarray,
                      stoich: np.ndarray) -> None:
        """Redraw the rejected leap rows ``pending`` on their own, each
        attempt with half the previous tau, and fall back to one exact
        step for those still rejected after :data:`MAX_LEAP_ATTEMPTS`
        attempts in all (their propensities are still current: a
        rejected row never committed a change)."""
        X, tw, trg, rs, done = ws.X, ws.tw, ws.trg, ws.rs, ws.done
        new_steps, new_leaps, _ = ws.tally
        for _attempt in range(1, self.MAX_LEAP_ATTEMPTS):
            lam = ws.a[:, pending].T * ptau[:, None]
            fires = self._draw_poisson(None if rs is None else rs[pending],
                                       lam)
            Xp = X[pending]
            ok = self.kernel.leap_fire(Xp, stoich, fires)
            X[pending] = Xp
            committed = pending[ok]
            if committed.size:
                tw[committed] += ptau[ok]
                # rejected rows are unchanged, so one reduce over all
                # of Xp vets exactly the committed ones
                _require_exact(self, Xp, ws.active[pending], tw[pending])
                new_steps[committed] += fires[ok].sum(axis=1).astype(np.int64)
                new_leaps[committed] += 1
                reached = tw[committed] >= trg[committed] - 1e-12
                done[committed[reached]] = True
            rej = ~ok
            if not rej.any():
                return
            pending = pending[rej]
            ptau = ptau[rej] * 0.5
        # still rejecting: the state is effectively small-count
        done[self._leap_exact_step(ws, pending, cumulative, stoich)] = True

    def _leap_exact_step(self, ws: _LeapWorkspace, sub: np.ndarray,
                         cumulative: np.ndarray,
                         stoich: np.ndarray) -> np.ndarray:
        """One exact SSA step for the working rows ``sub`` (sorted, so
        per-stream draw groups stay contiguous); returns the rows whose
        next event falls past their target (they fire nothing)."""
        X, tw, trg, rs = ws.X, ws.tw, ws.trg, ws.rs
        new_steps, _, new_exact = ws.tally
        totals = cumulative[-1]
        taus = self._draw(None if rs is None else rs[sub], sub.size,
                          False) / totals[sub]
        nt = tw[sub] + taus
        over = nt >= trg[sub]
        go = sub[~over]
        if go.size:
            picks = self._draw(None if rs is None else rs[go], go.size,
                               True) * totals[go]
            chosen = self.kernel.select_events(
                np.ascontiguousarray(cumulative[:, go]), picks)
            Xg = X[go]
            self.kernel.apply_stoich(Xg, stoich, chosen)
            X[go] = Xg
            tw[go] = nt[~over]
            new_steps[go] += 1
            new_exact[go] += 1
        return sub[over]

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
        bounds = rs.searchsorted(np.arange(len(self._streams) + 1)).tolist()
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
