"""The per-step direct method, frozen as the scalar flat engine's oracle.

:class:`FlatDirectOracle` is :class:`~repro.cwc.network.FlatSimulator`
as it stood when every SSA event was one ``step`` call: ``step`` draws
the clock and the reaction, ``Reaction.apply`` updates the counts and
``_refresh_dependents`` recomputes the propensities that the firing can
change (the Gibson-Bruck dependency graph), keeping the total by their
delta and re-summing it every ``RESUM_INTERVAL`` events.  The
mass-action propensity is a frozen copy too (:func:`propensity`), so
the engine's generated loop is checked against code it does not share.

Everything else (state layout, pickling, ``observe``, ``run``) is
inherited, so an oracle and an engine seeded alike must end
every call with equal bytes: times, counts, ``steps``, ``_props``,
``_total`` and the RNG state.
"""

from __future__ import annotations

import math

from repro.cwc.network import FlatSimulator, StateView


def propensity(reaction, counts: dict[str, int]) -> float:
    """``Reaction.propensity``: mass action ``k * prod C(n_i, m_i)``
    gated on availability; a functional law gives the full propensity."""
    h = 1
    for species, need in reaction.reactants:
        have = counts.get(species, 0)
        if have < need:
            return 0.0
        if need == 1:
            h *= have
        elif need == 2:
            h *= have * (have - 1) >> 1
        else:
            h *= math.comb(have, need)
    if callable(reaction.rate):
        return reaction.rate(StateView(counts))
    return reaction.rate * h


def apply(reaction, counts: dict[str, int]) -> None:
    for species, need in reaction.reactants:
        counts[species] = counts.get(species, 0) - need
    for species, made in reaction.products:
        counts[species] = counts.get(species, 0) + made


class FlatDirectOracle(FlatSimulator):
    """One Python ``step`` per SSA event (see module docstring)."""

    def __init__(self, network, seed=None):
        super().__init__(network, seed=seed)
        self._deps = network.reaction_dependencies()

    def _recompute_propensities(self) -> None:
        self._props = [propensity(r, self.counts)
                       for r in self.network.reactions]
        self._total = sum(self._props)
        self._props_valid = True
        self._steps_since_resum = 0

    def _refresh_dependents(self, fired: int) -> None:
        counts = self.counts
        props = self._props
        reactions = self.network.reactions
        delta = 0.0
        for i in self._deps[fired]:
            new = propensity(reactions[i], counts)
            delta += new - props[i]
            props[i] = new
        self._total += delta
        self._steps_since_resum += 1
        if self._steps_since_resum >= self.RESUM_INTERVAL:
            self._total = sum(props)
            self._steps_since_resum = 0

    def step(self, t_max: float = math.inf) -> bool:
        if not self._props_valid:
            self._recompute_propensities()
        total = self._total
        if total <= 0.0:
            self._recompute_propensities()
            total = self._total
            if total <= 0.0:
                if t_max < math.inf:
                    self.time = max(self.time, t_max)
                return False
        tau = self.rng.expovariate(total)
        if self.time + tau > t_max:
            self.time = t_max
            return False
        pick = self.rng.random() * total
        acc = 0.0
        chosen = len(self._props) - 1
        for i, a in enumerate(self._props):
            acc += a
            if pick < acc:
                chosen = i
                break
        apply(self.network.reactions[chosen], self.counts)
        self._refresh_dependents(chosen)
        self.time += tau
        self.steps += 1
        return True

    def advance(self, quantum: float) -> float:
        target = self.time + quantum
        while self.time < target:
            if not self.step(t_max=target):
                break
        return self.time
