"""Alternative stochastic simulation methods.

The paper's simulator implements Gillespie's *direct* method; StochKit
(the baseline it cites) "remain[s] open to extension via new stochastic
and multi-scale algorithms".  This module provides two such extensions
for flat networks:

* :class:`FirstReactionSimulator` -- Gillespie's first-reaction method:
  draw one exponential clock per reaction, fire the earliest.  Exactly
  equivalent in distribution to the direct method (and used as a
  cross-validation oracle in the tests).
* :class:`TauLeapSimulator` -- explicit tau-leaping (Gillespie 2001 with
  the Cao-Gillespie-Petzold step-size control): advance by a leap
  ``tau`` firing ``Poisson(a_j * tau)`` copies of each reaction at once.
  Approximate but much faster for large populations; falls back to exact
  SSA steps when the leap would be smaller than a few SSA steps, and
  rejects/halves leaps that would drive a population negative.

Both expose the common trajectory interface (``time``, ``steps``,
``advance``, ``run``, ``observe``) so they can be farmed by the pipeline
like any other engine.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.cwc.batch import CompiledNetwork, compile_network
from repro.cwc.gillespie import SampledSimulator
from repro.cwc.kernels import NumpyKernel
from repro.cwc.network import FlatSimulator, ReactionNetwork


class FirstReactionSimulator(FlatSimulator):
    """Gillespie's first-reaction method (exact)."""

    def step(self, t_max: float = math.inf) -> bool:
        best_tau = math.inf
        best_reaction = None
        for reaction in self.network.reactions:
            a = reaction.propensity(self.counts)
            if a <= 0.0:
                continue
            tau = self.rng.expovariate(a)
            if tau < best_tau:
                best_tau = tau
                best_reaction = reaction
        if best_reaction is None:
            if t_max < math.inf:
                self.time = max(self.time, t_max)
            return False
        if self.time + best_tau > t_max:
            self.time = t_max
            return False
        best_reaction.apply(self.counts)
        self.time += best_tau
        self.steps += 1
        return True

    def advance(self, quantum: float) -> float:
        # per step: the inherited advance runs the direct method's loop
        target = self.time + quantum
        while self.time < target:
            if not self.step(t_max=target):
                break
        return self.time


class TauLeapSimulator(SampledSimulator):
    """Explicit tau-leaping (approximate, accelerated).

    ``epsilon`` bounds the relative change of any propensity within one
    leap (smaller = more accurate, slower).  ``ssa_threshold`` switches
    to exact SSA steps when the selected leap is shorter than that many
    expected SSA steps (the standard hybrid rule).

    State lives in a one-row batch matrix and propensities come from
    :class:`~repro.cwc.batch.CompiledNetwork` -- the same vectorised
    evaluators, and the same in-place :meth:`NumpyKernel.leap_tau` /
    :meth:`NumpyKernel.leap_fire` primitives, the batch engine uses, so
    this scalar engine shares the compiled fast path instead of looping
    ``reaction.propensity(...)`` per step.
    """

    def __init__(self,
                 network: Union[ReactionNetwork, CompiledNetwork],
                 seed: Optional[int] = None,
                 epsilon: float = 0.03, ssa_threshold: float = 10.0):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.compiled = compile_network(network)
        self._x = self.compiled.initial.astype(np.float64)[None, :].copy()
        self._stoich = self.compiled.stoich.astype(np.float64)
        # stays bound to the one-row state, which only changes in place
        self._kernel = NumpyKernel(self.compiled)
        self.time = 0.0
        self.steps = 0       # reaction firings (sum of leap counts)
        self.leaps = 0
        self.exact_steps = 0
        self.epsilon = epsilon
        self.ssa_threshold = ssa_threshold
        self.rng = np.random.default_rng(seed)

    @property
    def network(self) -> ReactionNetwork:
        # read through ``compiled``, never held twice (as
        # ``BatchFlatSimulator.network``): a second reference would
        # pickle as a second network once ``compiled`` resolves through
        # the compile cache on the other side
        return self.compiled.network

    model = network

    @property
    def counts(self) -> dict[str, int]:
        """The current state as a species -> copy-number mapping (a
        snapshot; mutate the simulator through ``step``/``advance``)."""
        return {s: int(self._x[0, i])
                for s, i in self.compiled.species_index.items()}

    # ------------------------------------------------------------------
    def _exact_step(self, aT: np.ndarray, total: float,
                    t_max: float) -> bool:
        """One exact direct-method step from the precomputed
        propensities (the leap fallback in the small-tau regime)."""
        tau = self.rng.exponential(1.0 / total)
        if self.time + tau > t_max:
            self.time = t_max
            return False
        pick = self.rng.random() * total
        cumulative = np.cumsum(aT[:, 0])
        chosen = int((cumulative < pick).sum())
        if chosen > aT.shape[0] - 1:
            chosen = aT.shape[0] - 1
        self._x[0] += self._stoich[chosen]
        self.time += tau
        self.steps += 1
        self.exact_steps += 1
        return True

    def step(self, t_max: float = math.inf) -> bool:
        """One leap (or one exact SSA step in the hybrid regime)."""
        aT = self._kernel.propensities_T(self._x)
        total = float(aT.sum())
        if total <= 0.0:
            if t_max < math.inf:
                self.time = max(self.time, t_max)
            return False
        tau = float(self._kernel.leap_tau(aT, self._x, self._stoich,
                                          self.epsilon)[0])
        if tau < self.ssa_threshold / total:
            # leap not worth it: take one exact step
            return self._exact_step(aT, total, t_max)
        tau = min(tau, t_max - self.time)
        if tau <= 0.0:
            self.time = t_max
            return False
        for _attempt in range(30):
            fires = self.rng.poisson(aT[:, 0] * tau).astype(np.float64)
            ok = self._kernel.leap_fire(self._x, self._stoich,
                                        fires[None, :])
            if ok[0]:
                self.time += tau
                self.steps += int(fires.sum())
                self.leaps += 1
                return True
            tau /= 2.0  # rejected: would go negative; halve and retry
        # could not find a safe leap: take one exact step instead
        return self._exact_step(aT, total, t_max)

    def advance(self, quantum: float) -> float:
        target = self.time + quantum
        while self.time < target:
            if not self.step(t_max=target):
                break
        return self.time

    def observe(self) -> tuple[float, ...]:
        return tuple(
            float(v)
            for v in self._x[0, self.compiled.observable_columns])

    @property
    def observable_names(self) -> tuple[str, ...]:
        return self.network.observables

    def __repr__(self) -> str:
        return (f"<TauLeapSimulator {self.network.name!r} t={self.time:.4g} "
                f"leaps={self.leaps} exact={self.exact_steps}>")
