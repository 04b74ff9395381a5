"""Pluggable inner-loop kernels for the batch SSA engine.

The lockstep loop of :class:`~repro.cwc.batch.BatchFlatSimulator` spends
essentially all of its time in three deterministic array computations:

1. **propensities + running sums** -- assemble the ``(n_reactions,
   n_trajectories)`` propensity matrix and accumulate it down the
   reaction axis (the running sums drive reaction selection and their
   last row is the totals);
2. **event selection** -- count, per trajectory, how many running sums
   fall below the uniform pick (cumulative-sum inversion);
3. **stoichiometry application** -- scatter each chosen reaction's state
   change into the counts matrix.

This module packages those three as *kernels* with a tiny common
surface, selected by name (``engine_kernel`` in the workflow config).
The exact loop calls 2 and 3 through one method, **fire**, which also
honours the loop's *dead lanes* (rows already written back, kept in the
working set until it is compacted): a dead lane's pick is negative and
its state never changes.  Tau-leaping (``method="tau"|"hybrid"``) adds
two more primitives to the same surface: **leap_tau** (the per-row
Cao-Gillespie-Petzold step-size bound from stoichiometry moments) and
**leap_fire** (batched scatter of Poisson firing counts with
negative-population rejection).  The random draws themselves stay in
Python, every one of them.

* ``"numpy"`` -- the reference implementation: the compiled network's
  propensity plan replayed on preallocated buffers, the running sums
  one ``add(out=)`` per reaction row (``accumulate``'s own order, 5x
  faster than ``add.accumulate(axis=0)`` at 1536 rows), and pick and
  fire as one integer-exact matmul: ``below[0] = 1``, ``below[j] =
  cum[j-1] < pick``, ``X += below.T @ D`` with ``D[j] = stoich[j] -
  stoich[j-1]``, which telescopes to the chosen reaction's row (3 calls
  where count, clamp, gather and add were 5).  Running sums that never
  decrease make ``below`` a prefix of ones, so this is exact only for
  networks whose propensities are never negative
  (``CompiledNetwork.nonnegative`` and non-negative per-row rates);
  others keep the count-and-clamp form.  The leap primitives run in
  place too (:meth:`NumpyKernel.leap_tau` on buffers bound to the
  propensity matrix, :meth:`NumpyKernel.leap_fire` on the bound working
  set; gathered rows take :func:`numpy_leap_fire`).  Always available;
  the correctness oracle for everything else.
* ``"numba"`` -- ``@njit``-compiled fused loops.  **Bit-identical** to
  numpy for the same seeds: every random draw stays in Python (same
  generator, same call order, same sizes) and the compiled code performs
  the *same IEEE-754 operations in the same order* as the numpy
  expressions (``fastmath`` stays off, the cumulative sum is sequential,
  combinatorial factors multiply in reactant order).  What changes is
  only dispatch overhead: one fused pass instead of a dozen temporaries.
  It fires by count and clamp; a dead lane picks a zero row appended to
  the stoichiometry.
* ``"cupy"`` -- a dispatch shim running the same three steps on a real
  GPU through CuPy.  Statistically equivalent but *not* bit-pinned:
  ``cumsum`` on the device is a parallel scan whose float rounding may
  differ from the sequential sum.

Backends degrade gracefully: requesting a kernel whose package is not
installed raises :class:`KernelUnavailable` with the install hint, and
:func:`available_kernels` lets callers (CLI, tests) probe without
triggering imports at module load.

Mass-action reactions are compiled into a :class:`MassActionPlan` --
flat CSR-style arrays a jitted loop can walk without touching Python
objects.  Functional rate laws (Hill, Michaelis-Menten, arbitrary
callables) keep their vectorised numpy closures there: they are
evaluated outside the kernel and passed in as a dense ``(n_functional,
n_trajectories)`` block, so a model mixing both kinds still runs the
mass-action majority through the fused loop.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

#: kernels selectable via ``engine_kernel`` (mirrored by
#: ``WorkflowConfig.ENGINE_KERNELS``)
KERNEL_NAMES = ("numpy", "numba", "cupy")


class KernelUnavailable(RuntimeError):
    """The requested kernel backend cannot run here (package missing or
    no device)."""


class MassActionPlan:
    """CSR-style encoding of a compiled network's reactions for jitted
    loops.

    ``cols[indptr[j]:indptr[j+1]]`` / ``needs[...]`` are reaction ``j``'s
    reactant columns and multiplicities; ``facts`` carries the matching
    ``need!`` divisors so the kernel reproduces the oracle's
    falling-factorial expression exactly.  ``rates[j]`` is the
    mass-action rate constant (0 for functional reactions, whose rows
    are delivered separately); ``func_index[j]`` is the row of reaction
    ``j`` in the functional-values block, or -1.
    """

    __slots__ = ("rates", "indptr", "cols", "needs", "facts",
                 "func_index", "n_reactions")

    def __init__(self, compiled) -> None:
        reactants = compiled._reactants
        n_reactions = compiled.n_reactions
        self.n_reactions = n_reactions
        self.rates = np.asarray(compiled._rates, dtype=np.float64)
        self.indptr = np.zeros(n_reactions + 1, dtype=np.int64)
        cols: list[int] = []
        needs: list[int] = []
        facts: list[float] = []
        for j in range(n_reactions):
            for col, need in reactants[j]:
                cols.append(col)
                needs.append(need)
                facts.append(float(math.factorial(need)))
            self.indptr[j + 1] = len(cols)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.needs = np.asarray(needs, dtype=np.int64)
        self.facts = np.asarray(facts, dtype=np.float64)
        self.func_index = np.full(n_reactions, -1, dtype=np.int64)
        for k, (j, _law) in enumerate(compiled._functional):
            self.func_index[j] = k


# ---------------------------------------------------------------------------
# the three inner loops, in plain Python: the numba backend jit-compiles
# exactly these, so there is one algorithmic source of truth
# ---------------------------------------------------------------------------

def _propensities_cumsum_T(rates, indptr, cols, needs, facts, func_index,
                           func_values, X, out) -> None:
    """Fill ``out`` with the propensity matrix and accumulate it down
    the reaction axis, in the oracle's operation order."""
    n_reactions = out.shape[0]
    m = out.shape[1]
    for j in range(n_reactions):
        k = func_index[j]
        if k >= 0:
            # functional law, evaluated outside: gate on availability
            for i in range(m):
                value = func_values[k, i]
                for p in range(indptr[j], indptr[j + 1]):
                    if X[i, cols[p]] < needs[p]:
                        value = 0.0
                        break
                out[j, i] = value
        else:
            rate = rates[j]
            for i in range(m):
                h = 1.0
                for p in range(indptr[j], indptr[j + 1]):
                    n = X[i, cols[p]]
                    need = needs[p]
                    if need == 1:
                        h = h * n
                    elif need == 2:
                        h = h * (n * (n - 1) * 0.5)
                    else:
                        term = n
                        for d in range(1, need):
                            term = term * (n - d)
                        h = h * (term / facts[p])
                out[j, i] = rate * h
    for j in range(1, n_reactions):
        for i in range(m):
            out[j, i] = out[j, i] + out[j - 1, i]


def _propensities_cumsum_T_rows(rates_rows, indptr, cols, needs, facts,
                                func_index, func_values, X, out) -> None:
    """:func:`_propensities_cumsum_T` with per-row mass-action rate
    constants (``rates_rows[i, j]`` replaces ``rates[j]``) -- the fused
    sweep plane's kernel.  Same operations in the same order otherwise,
    so a row whose constants equal the scalar ones is bit-identical."""
    n_reactions = out.shape[0]
    m = out.shape[1]
    for j in range(n_reactions):
        k = func_index[j]
        if k >= 0:
            # functional law, evaluated outside: gate on availability
            for i in range(m):
                value = func_values[k, i]
                for p in range(indptr[j], indptr[j + 1]):
                    if X[i, cols[p]] < needs[p]:
                        value = 0.0
                        break
                out[j, i] = value
        else:
            for i in range(m):
                h = 1.0
                for p in range(indptr[j], indptr[j + 1]):
                    n = X[i, cols[p]]
                    need = needs[p]
                    if need == 1:
                        h = h * n
                    elif need == 2:
                        h = h * (n * (n - 1) * 0.5)
                    else:
                        term = n
                        for d in range(1, need):
                            term = term * (n - d)
                        h = h * (term / facts[p])
                out[j, i] = rates_rows[i, j] * h
    for j in range(1, n_reactions):
        for i in range(m):
            out[j, i] = out[j, i] + out[j - 1, i]


def _select_events(cumulative, picks, n_reactions, out) -> None:
    """Cumulative-sum inversion: ``out[i]`` counts the running sums
    strictly below ``picks[i]``, clipped to the last reaction."""
    m = cumulative.shape[1]
    last = n_reactions - 1
    for i in range(m):
        chosen = 0
        pick = picks[i]
        for j in range(n_reactions):
            if cumulative[j, i] < pick:
                chosen += 1
        if chosen > last:
            chosen = last
        out[i] = chosen


def _apply_stoich(X, stoich, chosen) -> None:
    """``X += stoich[chosen]`` as an explicit scatter."""
    m = X.shape[0]
    n_species = X.shape[1]
    for i in range(m):
        row = chosen[i]
        for s in range(n_species):
            X[i, s] = X[i, s] + stoich[row, s]


def _leap_tau(a, X, stoich, epsilon, out) -> None:
    """Per-row tau-leap candidate: Cao-Gillespie-Petzold step control.

    For every trajectory row ``i`` the leap is bounded so no species'
    expected change (``mu``) or change variance (``sigma^2``) exceeds
    ``max(epsilon * x, 1)``: ``tau = min_s(bound/|mu_s|, bound^2 /
    sigma2_s)``.  ``a`` is the *raw* ``(n_reactions, m)`` propensity
    matrix, ``stoich`` the float ``(n_reactions, n_species)`` net
    change.  Rows where nothing constrains the leap get ``inf``.
    """
    n_reactions = a.shape[0]
    m = a.shape[1]
    n_species = X.shape[1]
    for i in range(m):
        tau = np.inf
        for s in range(n_species):
            mu = 0.0
            sig2 = 0.0
            for j in range(n_reactions):
                v = stoich[j, s]
                if v != 0.0:
                    mu = mu + v * a[j, i]
                    sig2 = sig2 + (v * v) * a[j, i]
            bound = epsilon * X[i, s]
            if bound < 1.0:
                bound = 1.0
            if mu != 0.0:
                t = bound / abs(mu)
                if t < tau:
                    tau = t
            if sig2 > 0.0:
                t = (bound * bound) / sig2
                if t < tau:
                    tau = t
        out[i] = tau


def _leap_fire(X, stoich, fires, ok) -> None:
    """Apply one leap's Poisson firing counts row by row.

    ``fires`` is the ``(m, n_reactions)`` float matrix of firing counts
    (integer-valued).  A row whose new state would go negative is left
    untouched and flagged ``ok[i] = False`` -- the caller halves that
    row's tau and redraws (the standard rejection rule).  Counts,
    stoichiometry and firing counts are all integer-valued doubles, so
    every product and sum here is exact and any summation order gives
    the same result.
    """
    m = X.shape[0]
    n_species = X.shape[1]
    n_reactions = stoich.shape[0]
    row = np.empty(n_species)
    for i in range(m):
        good = True
        for s in range(n_species):
            acc = X[i, s]
            for j in range(n_reactions):
                k = fires[i, j]
                if k != 0.0:
                    acc = acc + k * stoich[j, s]
            row[s] = acc
            if acc < 0.0:
                good = False
        ok[i] = good
        if good:
            for s in range(n_species):
                X[i, s] = row[s]


# ---------------------------------------------------------------------------
# numpy reference implementation of leap_fire for gathered rows (the
# leap loop's retries, the cupy kernel's host side)
# ---------------------------------------------------------------------------

def numpy_leap_fire(X: np.ndarray, stoich: np.ndarray,
                    fires: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_leap_fire`: commits non-negative rows in
    place, returns the per-row acceptance mask.  All operands are
    integer-valued doubles, so the matmul matches the sequential loop
    exactly (integer arithmetic in float64 is order-independent)."""
    delta = fires @ stoich
    new = X + delta
    ok = (new >= 0.0).all(axis=1)
    X[ok] = new[ok]
    return ok


def lane_stoich(compiled) -> np.ndarray:
    """The float64 stoichiometry with a zero row appended: the reaction
    a dead lane of the exact loop picks under count and clamp."""
    return np.vstack((compiled.stoich,
                      np.zeros((1, compiled.n_species)))).astype(np.float64)


def fire_by_count(kernel, X: np.ndarray, cumulative: np.ndarray,
                  picks: np.ndarray, dead: np.ndarray) -> None:
    """Count and clamp through ``kernel``'s own ``select_events`` /
    ``apply_stoich``; the ``dead`` lanes fire the zero row of
    ``kernel._lane_stoich``."""
    chosen = kernel.select_events(cumulative, picks)
    if dead.size:
        chosen[dead] = kernel.compiled.n_reactions
    kernel.apply_stoich(X, kernel._lane_stoich, chosen)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class NumpyKernel:
    """The reference backend: replays the compiled network's propensity
    plan on a preallocated workspace.

    ``compiled.plan`` is a list of ``(op, a, b, out)`` NumPy calls with
    symbolic operands -- ``("x", col)`` a species column of the state,
    ``("k", j)`` reaction ``j``'s rate constant (or per-row rates),
    ``("a"|"f"|"s"|"t", j)`` row ``j`` of the propensity matrix / three
    scratch matrices.  :meth:`_bind` resolves them into views once per
    working set (the lockstep loop hands over the same ``X`` until it
    compacts), so an iteration is one ``op(a, b, out=out)`` per plan
    entry, one ``add`` per running-sum row and :meth:`fire`'s three
    calls: no Python loop over reactant lists and no temporaries.
    Every element sees the operations of the plain loops above in the
    same order, hence the same bits.
    """

    name = "numpy"

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self._lane_stoich = lane_stoich(compiled)
        #: row j adds stoich[j] - stoich[j-1]: a prefix of ones through
        #: row c sums to stoich[c] (small integers: exact in any order)
        self._stoich_steps = np.diff(self._lane_stoich[:-1], axis=0,
                                     prepend=0.0)
        self._bind(np.empty((0, compiled.n_species)), None)

    def _bind(self, X: np.ndarray,
              rates_rows: "np.ndarray | None") -> None:
        compiled = self.compiled
        self._X, self._rates_rows = X, rates_rows
        shape = (compiled.n_reactions, X.shape[0])
        self._props, f, s, t = np.empty((4,) + shape)
        rows = list(self._props)
        # operand kind -> its row views (list() splits in one C pass);
        # a 0-d array dispatches faster than a float, to the same bits
        operands = {
            "a": rows, "f": list(f), "s": list(s), "t": list(t),
            "x": list(X.T), "X": (X,),
            "k": ([np.array(k) for k in compiled._rates]
                  if rates_rows is None else list(rates_rows.T))}
        self._program = [
            tuple(operands[o[0]][o[1]] if isinstance(o, tuple) else
                  np.array(o) if isinstance(o, float) else o
                  for o in call) for call in compiled.plan]
        # the running sums in place, accumulate's order: row j += row j-1
        self._sums = [(prev, row, row) for prev, row in zip(rows, rows[1:])]
        # pick-and-fire: row 0 stays 1 on live lanes (reaction 0 is
        # always passed), rows 1.. are written per iteration
        self._below = np.ones(shape)
        self._fire_ops = (self._props[:-1], self._below[1:], self._below.T)
        self._dead = None
        self._prefix = compiled.nonnegative and (
            rates_rows is None or not (rates_rows < 0.0).any())
        self._flags = np.empty(shape, dtype=bool)
        self._chosen = np.empty(X.shape[0], dtype=np.intp)
        self._delta = np.empty_like(X)
        # the leap primitives' buffers, bound on their first call
        self._leap_a = self._leap_stoich = self._leap_out = None

    def __reduce__(self):
        return type(self), (self.compiled,)  # the buffers are a cache

    def propensities_T(self, X: np.ndarray,
                       rates_rows: "np.ndarray | None" = None
                       ) -> np.ndarray:
        if X is not self._X or rates_rows is not self._rates_rows:
            self._bind(X, rates_rows)
        for op, a, b, out in self._program:
            op(a, b, out=out)
        return self._props

    def propensities_cumsum_T(self, X: np.ndarray,
                              rates_rows: "np.ndarray | None" = None
                              ) -> np.ndarray:
        """The running sums, in place of the propensities."""
        cumulative = self.propensities_T(X, rates_rows)
        add = np.add
        for prev, row, out in self._sums:
            add(prev, row, out=out)
        return cumulative

    def fire(self, X: np.ndarray, cumulative: np.ndarray,
             picks: np.ndarray, dead: np.ndarray) -> None:
        """Fire one reaction per live lane of ``X``, the one
        ``picks`` selects from the running sums ``cumulative``; the
        ``dead`` lanes (their picks are negative) stay as they are.

        On this kernel's own running sums of a network whose sums never
        decrease, ``below`` is a prefix of ones ending at the chosen
        reaction (or at the last one, where count and clamp clamps) and
        ``below.T @ D`` is that reaction's row.  A dead lane has ``below[0] = 0``
        and, its pick being negative, nothing after it.  Anything else
        fires by count and clamp (:func:`fire_by_count`).
        """
        if cumulative is not self._props or not self._prefix:
            return fire_by_count(self, X, cumulative, picks, dead)
        below = self._below
        if dead is not self._dead:
            below[0] = 1.0
            below[0, dead] = 0.0
            self._dead = dead
        head, tail, below_T = self._fire_ops
        np.less(head, picks, out=tail)
        np.add(X, np.matmul(below_T, self._stoich_steps, out=self._delta),
               out=X)

    def select_events(self, cumulative: np.ndarray,
                      picks: np.ndarray) -> np.ndarray:
        below, chosen = self._flags, self._chosen
        if cumulative.shape != below.shape:  # not the bound working set
            below = chosen = None
        below = np.less(cumulative, picks, out=below)
        chosen = np.add.reduce(below, axis=0, dtype=np.intp, out=chosen)
        # numerical slack: never index past the last reaction
        return np.minimum(chosen, cumulative.shape[0] - 1, out=chosen)

    def apply_stoich(self, X: np.ndarray, stoich: np.ndarray,
                     chosen: np.ndarray) -> None:
        delta = self._delta if X.shape == self._delta.shape else None
        np.add(X, np.take(stoich, chosen, axis=0, out=delta, mode="clip"),
               out=X)

    def _bind_leap_tau(self, a: np.ndarray, stoich: np.ndarray) -> None:
        """Bind :meth:`leap_tau` to ``a`` (and rows of its width): per
        species its ``(mu, sigma^2)`` accumulator pair and, per reaction
        changing it, ``([[v], [v * v]], a[j])`` -- the terms
        :func:`_leap_tau` adds, both accumulators in one call."""
        n_species, m = stoich.shape[1], a.shape[1]
        self._leap_a, self._leap_stoich = a, stoich
        self._moments = np.empty((n_species, 2, m))
        self._leap_program = [
            (pair, [(np.array([[v], [v * v]]), a_j)
                    for v, a_j in zip(column, a) if v != 0.0])
            for pair, column in zip(self._moments, stoich.T)]
        #: the bounds ``bound / |mu|`` and ``bound^2 / sigma^2``
        self._leap_t = np.empty((2, n_species, m))
        self._leap_scratch = (np.empty((2, m)), np.empty((n_species, m)),
                              np.empty((n_species, m), dtype=bool),
                              np.empty(m))

    def leap_tau(self, a: np.ndarray, X: np.ndarray, stoich: np.ndarray,
                 epsilon: float) -> np.ndarray:
        """:func:`_leap_tau` vectorized into buffers bound to ``a``
        (the loop hands over the same propensity buffer until it
        compacts), every element seeing the loop's operations in the
        same order: each species' mu and sigma^2 summed from 0.0 over
        the reactions in order, the bound ``max(epsilon * x, 1)``, then
        both step bounds of every species at once and their minimum
        (exact in any order).  Its ``mu != 0`` test is left out: the
        bound is at least 1, so ``bound / |0|`` is already ``inf``.
        The result is scratch, valid until the next call."""
        if a is not self._leap_a or stoich is not self._leap_stoich:
            self._bind_leap_tau(a, stoich)
        moments, t = self._moments, self._leap_t
        term, bound, flag, tau = self._leap_scratch
        add, multiply = np.add, np.multiply
        moments.fill(0.0)
        for pair, terms in self._leap_program:
            for coefficients, a_j in terms:
                add(pair, multiply(coefficients, a_j, out=term), out=pair)
        mu, sig2 = moments[:, 0], moments[:, 1]
        np.maximum(multiply(epsilon, X.T, out=bound), 1.0, out=bound)
        with np.errstate(divide="ignore"):
            np.divide(bound, np.absolute(mu, out=t[0]), out=t[0])
            np.divide(multiply(bound, bound, out=t[1]), sig2, out=t[1])
        np.copyto(t[1], np.inf, where=np.less_equal(sig2, 0.0, out=flag))
        return np.minimum.reduce(t.reshape(-1, tau.size), axis=0, out=tau)

    def leap_fire(self, X: np.ndarray, stoich: np.ndarray,
                  fires: np.ndarray) -> np.ndarray:
        """:func:`numpy_leap_fire` in place on the bound working set:
        ``delta`` and ``new`` in bound buffers, and one reduce to see
        that every row stays non-negative (the usual case) before the
        per-row mask.  Any other ``X`` takes the allocating function;
        the returned mask is scratch, valid until the next call."""
        if X is not self._X:
            return numpy_leap_fire(X, stoich, fires)
        if self._leap_out is None:
            self._leap_out = (np.empty_like(X), np.empty(X.shape, dtype=bool),
                              np.empty(X.shape[0], dtype=bool))
        new, flags, ok = self._leap_out
        np.add(X, np.matmul(fires, stoich, out=self._delta), out=new)
        if np.minimum.reduce(new, axis=None, initial=0.0) >= 0.0:
            np.copyto(X, new)
            ok.fill(True)
            return ok
        np.logical_and.reduce(np.greater_equal(new, 0.0, out=flags), axis=1,
                              out=ok)
        np.copyto(X, new, where=ok[:, None])
        return ok


_NUMBA_CACHE: Optional[tuple[Callable, ...]] = None


def _numba_kernels() -> tuple[Callable, ...]:
    """Compile (once per process) the six loops with numba.

    ``fastmath`` stays off and no parallelisation is requested: the JIT
    must execute the same IEEE-754 operations in the same order as the
    numpy oracle, or bit-identity (and with it the cluster's replay
    guarantee) is gone.  ``cache=True`` persists the machine code across
    processes -- the process farm's workers each import this module.
    """
    global _NUMBA_CACHE
    if _NUMBA_CACHE is not None:
        return _NUMBA_CACHE
    try:
        from numba import njit
    except ImportError as exc:
        raise KernelUnavailable(
            "engine_kernel='numba' needs the numba package "
            "(pip install 'repro[numba]')") from exc
    jit = njit(cache=True, fastmath=False, nogil=True)
    _NUMBA_CACHE = (jit(_propensities_cumsum_T), jit(_select_events),
                    jit(_apply_stoich), jit(_propensities_cumsum_T_rows),
                    jit(_leap_tau), jit(_leap_fire))
    return _NUMBA_CACHE


class NumbaKernel:
    """JIT-compiled fused loops, bit-identical to the numpy oracle."""

    name = "numba"

    def __init__(self, compiled) -> None:
        (self._props, self._select, self._apply, self._props_rows,
         self._leap_tau, self._leap_fire) = _numba_kernels()
        self.compiled = compiled
        self.plan = MassActionPlan(compiled)
        self._functional = compiled._functional
        self._lane_stoich = lane_stoich(compiled)

    def propensities_cumsum_T(self, X: np.ndarray,
                              rates_rows: "np.ndarray | None" = None
                              ) -> np.ndarray:
        m = X.shape[0]
        plan = self.plan
        if self._functional:
            func_values = np.empty((len(self._functional), m))
            for k, (_j, law) in enumerate(self._functional):
                func_values[k] = law(X)
        else:
            func_values = np.empty((0, m))
        out = np.empty((plan.n_reactions, m))
        if rates_rows is None:
            self._props(plan.rates, plan.indptr, plan.cols, plan.needs,
                        plan.facts, plan.func_index, func_values, X, out)
        else:
            self._props_rows(
                np.ascontiguousarray(rates_rows, dtype=np.float64),
                plan.indptr, plan.cols, plan.needs, plan.facts,
                plan.func_index, func_values, X, out)
        return out

    def select_events(self, cumulative: np.ndarray,
                      picks: np.ndarray) -> np.ndarray:
        chosen = np.empty(cumulative.shape[1], dtype=np.int64)
        self._select(cumulative, picks, self.plan.n_reactions, chosen)
        return chosen

    fire = fire_by_count

    def apply_stoich(self, X: np.ndarray, stoich: np.ndarray,
                     chosen: np.ndarray) -> None:
        self._apply(X, stoich, chosen)

    def leap_tau(self, a: np.ndarray, X: np.ndarray, stoich: np.ndarray,
                 epsilon: float) -> np.ndarray:
        out = np.empty(a.shape[1])
        self._leap_tau(np.ascontiguousarray(a), X, stoich, epsilon, out)
        return out

    def leap_fire(self, X: np.ndarray, stoich: np.ndarray,
                  fires: np.ndarray) -> np.ndarray:
        ok = np.empty(X.shape[0], dtype=np.bool_)
        self._leap_fire(X, stoich, np.ascontiguousarray(fires), ok)
        return ok


class CupyKernel:
    """Real-GPU dispatch shim: the same three steps on CuPy arrays.

    Inputs and outputs stay numpy (the surrounding loop -- RNG, retire,
    compaction -- is host-side), so every call pays a transfer; this is
    a correctness-first bridge to a real device, not the final word on
    GPU performance.  Not bit-pinned to the oracle: the device cumsum is
    a parallel scan.
    """

    name = "cupy"

    def __init__(self, compiled) -> None:
        try:
            import cupy
            cupy.cuda.runtime.getDeviceCount()
        except Exception as exc:  # noqa: BLE001 - import or driver error
            raise KernelUnavailable(
                "engine_kernel='cupy' needs the cupy package and a CUDA "
                "device (pip install 'repro[cupy]')") from exc
        self._cp = cupy
        self.compiled = compiled
        self.plan = MassActionPlan(compiled)
        self._functional = compiled._functional
        self._rates = cupy.asarray(self.plan.rates)
        self._lane_stoich = lane_stoich(compiled)

    def propensities_cumsum_T(self, X: np.ndarray,
                              rates_rows: "np.ndarray | None" = None
                              ) -> np.ndarray:
        cp = self._cp
        compiled = self.compiled
        Xd = cp.asarray(X)
        rates_d = None if rates_rows is None else cp.asarray(rates_rows)
        out = cp.empty((compiled.n_reactions, X.shape[0]))
        for j in range(compiled.n_reactions):
            k = self.plan.func_index[j]
            if k >= 0:
                continue
            h = cp.ones(X.shape[0])
            for p in range(self.plan.indptr[j], self.plan.indptr[j + 1]):
                n = Xd[:, self.plan.cols[p]]
                need = int(self.plan.needs[p])
                if need == 1:
                    h = h * n
                elif need == 2:
                    h = h * (n * (n - 1) * 0.5)
                else:
                    term = n
                    for d in range(1, need):
                        term = term * (n - d)
                    h = h * (term / self.plan.facts[p])
            rate = self._rates[j] if rates_d is None else rates_d[:, j]
            out[j] = rate * h
        for j, law in self._functional:
            value = cp.asarray(law(X))  # closures are host-side numpy
            for p in range(self.plan.indptr[j], self.plan.indptr[j + 1]):
                value = cp.where(
                    Xd[:, self.plan.cols[p]] >= self.plan.needs[p],
                    value, 0.0)
            out[j] = value
        return cp.asnumpy(cp.cumsum(out, axis=0))

    def select_events(self, cumulative: np.ndarray,
                      picks: np.ndarray) -> np.ndarray:
        cp = self._cp
        chosen = (cp.asarray(cumulative)
                  < cp.asarray(picks)[None, :]).sum(axis=0)
        cp.clip(chosen, 0, self.plan.n_reactions - 1, out=chosen)
        return cp.asnumpy(chosen)

    fire = fire_by_count

    def apply_stoich(self, X: np.ndarray, stoich: np.ndarray,
                     chosen: np.ndarray) -> None:
        X += stoich[chosen]  # host-side: X lives in the loop's workspace

    def leap_tau(self, a: np.ndarray, X: np.ndarray, stoich: np.ndarray,
                 epsilon: float) -> np.ndarray:
        cp = self._cp
        ad = cp.asarray(a)
        Xd = cp.asarray(X)
        Sd = cp.asarray(stoich)
        mu = Sd.T @ ad          # (n_species, m)
        sig2 = (Sd * Sd).T @ ad
        bound = cp.maximum(epsilon * Xd.T, 1.0)
        with np.errstate(divide="ignore"):
            t1 = cp.where(mu != 0.0, bound / cp.abs(mu), cp.inf)
            t2 = cp.where(sig2 > 0.0, (bound * bound) / sig2, cp.inf)
        return cp.asnumpy(cp.minimum(t1, t2).min(axis=0))

    def leap_fire(self, X: np.ndarray, stoich: np.ndarray,
                  fires: np.ndarray) -> np.ndarray:
        # host-side like apply_stoich: X lives in the loop's workspace
        return numpy_leap_fire(X, stoich, fires)


_BACKENDS = {
    "numpy": NumpyKernel,
    "numba": NumbaKernel,
    "cupy": CupyKernel,
}


def make_kernel(name: str, compiled):
    """Build the ``name`` kernel bound to ``compiled``.

    Raises :class:`KernelUnavailable` (a clean, catchable signal -- the
    CLI turns it into an error message, tests into a skip) when the
    backing package or device is absent.
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; pick one of "
            f"{', '.join(KERNEL_NAMES)}") from None
    return factory(compiled)


def kernel_available(name: str) -> bool:
    """Probe whether ``name`` could be built here (imports on demand)."""
    if name == "numpy":
        return True
    if name == "numba":
        try:
            import numba  # noqa: F401
            return True
        except ImportError:
            return False
    if name == "cupy":
        try:
            import cupy
            cupy.cuda.runtime.getDeviceCount()
            return True
        except Exception:  # noqa: BLE001
            return False
    return False


def available_kernels() -> dict[str, bool]:
    """Availability of every kernel backend in this environment."""
    return {name: kernel_available(name) for name in KERNEL_NAMES}
