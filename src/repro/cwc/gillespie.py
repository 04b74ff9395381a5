"""The Gillespie stochastic simulation algorithm over CWC terms.

Each :class:`CWCSimulator` instance owns one *trajectory*: a mutable term
rewritten in place, a simulation clock, and a private random stream.  The
engine implements Gillespie's direct method generalised to tree terms:

1. for every compartment (context) and every rule applicable there,
   compute the propensity ``a = rate(context) * h`` where ``h`` is the
   match multiplicity (:func:`repro.cwc.matching.match_multiplicity`);
2. draw the time to the next reaction from ``Exp(sum a)``;
3. pick a (rule, context) pair with probability proportional to ``a``,
   pick one concrete match uniformly among its combinations, and rewrite.

Two facilities match the paper's workflow:

* **quantum stepping** (:meth:`SampledSimulator.advance`): run for a bounded
  amount of *simulation time* and return, so a farm can interleave many
  trajectories and rebalance load after every quantum.  Stopping at a
  quantum boundary is statistically exact: the exponential clock is
  memoryless, so the partially elapsed waiting time can be discarded and
  resampled.
* **propensity caching**: propensities are cached per context and, after a
  rule fires, only the affected context is recomputed when the rule is
  flat (pure atom rewriting).  Rules touching compartments invalidate the
  whole cache -- structure edits are rare in practice.  The cache can be
  disabled to quantify its effect (see the scheduling/caching ablation
  benchmark).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.cwc.matching import match_multiplicity, select_match
from repro.cwc.model import Model
from repro.cwc.rule import ContextView, Rule
from repro.cwc.term import Term


@dataclass
class SSAResult:
    """A sampled trajectory: observable values on a regular time grid."""

    model_name: str
    observable_names: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    samples: list[tuple[float, ...]] = field(default_factory=list)
    steps: int = 0

    def column(self, name: str) -> list[float]:
        try:
            index = self._column_index
        except AttributeError:
            index = {n: i for i, n in enumerate(self.observable_names)}
            self._column_index = index
        try:
            idx = index[name]
        except KeyError:
            raise ValueError(
                f"{name!r} is not in {self.observable_names}") from None
        return [s[idx] for s in self.samples]

    def __len__(self) -> int:
        return len(self.times)


class SampledSimulator:
    """What the scalar simulators share, given their ``model``,
    ``time``, ``steps``, ``step``, ``observe`` and ``observable_names``:
    the stepping loop, the sampling loop of a whole run, and the
    block-of-``n`` surface a :class:`~repro.sim.task.SimulationTask`
    drives (a block of one)."""

    #: trajectories in the block
    n = 1

    def advance(self, quantum: float) -> float:
        """Advance the clock by up to ``quantum`` simulation-time units
        (the paper's *simulation quantum*).  Returns the new time."""
        target = self.time + quantum
        while self.time < target:
            if not self.step(t_max=target):
                break
        return self.time

    def advance_to(self, t: float) -> float:
        # the target stays ``time + (t - time)``, bit for bit
        return self.advance(t - self.time)

    def observe_all(self) -> tuple[tuple[float, ...]]:
        return (self.observe(),)

    @property
    def total_steps(self) -> int:
        return self.steps

    def run(self, t_end: float, sample_every: float) -> SSAResult:
        """Run to ``t_end``, sampling observables every ``sample_every``
        time units (including the start and ``t_end``)."""
        result = SSAResult(model_name=self.model.name,
                           observable_names=self.observable_names)
        next_sample = self.time
        while True:
            result.times.append(next_sample)
            result.samples.append(self.observe())
            if next_sample >= t_end:
                break
            next_sample = min(next_sample + sample_every, t_end)
            self.advance(next_sample - self.time)
        result.steps = self.steps
        return result


class CWCSimulator(SampledSimulator):
    """One stochastic trajectory of a CWC model (see module docstring)."""

    #: context refreshes between exact re-summations of the grand total
    RESUM_INTERVAL = 4096

    def __init__(self, model: Model, seed: Optional[int] = None,
                 cache_propensities: bool = True):
        self.model = model
        self.term = model.term.copy()
        self.time = 0.0
        self.steps = 0
        self.rng = random.Random(seed)
        self.cache_propensities = cache_propensities
        # context cache: id(term) -> (term, [(rule, a), ...], total)
        self._cache: dict[int, tuple[Term, list[tuple[Rule, float]], float]] = {}
        self._cache_valid = False
        # grand total over all contexts, maintained by delta on refresh so
        # the per-step total does not re-sum the cache
        self._cache_total = 0.0
        self._refreshes_since_resum = 0

    # ------------------------------------------------------------------
    # propensity computation
    # ------------------------------------------------------------------
    def _context_propensities(self, term: Term) -> tuple[list[tuple[Rule, float]], float]:
        entries: list[tuple[Rule, float]] = []
        total = 0.0
        view = ContextView(term)
        for rule in self.model.rules_for(term.label()):
            h = match_multiplicity(rule.lhs, term)
            if h == 0:
                continue
            if callable(rule.rate):
                # functional rates give the full propensity; the LHS only
                # defines what is consumed (and gates on availability)
                a = rule.propensity_factor(view)
            else:
                a = rule.rate * h
            if a > 0.0:
                entries.append((rule, a))
                total += a
        return entries, total

    def _rebuild_cache(self) -> None:
        self._cache = {}
        grand = 0.0
        for term in self.term.walk_terms():
            entries, total = self._context_propensities(term)
            self._cache[id(term)] = (term, entries, total)
            grand += total
        self._cache_total = grand
        self._refreshes_since_resum = 0
        self._cache_valid = True

    def _refresh_context(self, term: Term) -> None:
        old = self._cache.get(id(term))
        entries, total = self._context_propensities(term)
        self._cache[id(term)] = (term, entries, total)
        self._cache_total += total - (old[2] if old is not None else 0.0)
        self._refreshes_since_resum += 1
        if self._refreshes_since_resum >= self.RESUM_INTERVAL:
            # insurance against float drift in the delta updates
            self._cache_total = sum(t for _, _, t in self._cache.values())
            self._refreshes_since_resum = 0

    def total_propensity(self) -> float:
        if not self.cache_propensities:
            return sum(
                self._context_propensities(t)[1]
                for t in self.term.walk_terms())
        if not self._cache_valid:
            self._rebuild_cache()
        return self._cache_total

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _tail_event(self, grand_total: float,
                    preferred: Optional[Term] = None
                    ) -> Optional[tuple[Rule, Term, float]]:
        """Float-rounding fallback for the cumulative scan: the running
        sum overshot without selecting, so take the last entry of
        ``preferred`` (the context the scan stopped in) or, failing that,
        of the first context that has any entries at all."""
        if preferred is not None:
            entries = self._cache[id(preferred)][1]
            if entries:
                return entries[-1][0], preferred, grand_total
        for term, entries, _total in self._cache.values():
            if entries:
                return entries[-1][0], term, grand_total
        return None

    def _pick_event(self) -> Optional[tuple[Rule, Term, float]]:
        """Return (rule, context, total propensity) or None if exhausted."""
        if self.cache_propensities:
            if not self._cache_valid:
                self._rebuild_cache()
            grand_total = self._cache_total
            if grand_total <= 0.0:
                # delta-update drift could hide a tiny positive total:
                # settle it exactly before declaring exhaustion
                grand_total = sum(t for _, _, t in self._cache.values())
                self._cache_total = grand_total
                self._refreshes_since_resum = 0
                if grand_total <= 0.0:
                    return None
            pick = self.rng.random() * grand_total
            acc = 0.0
            for term, entries, total in self._cache.values():
                if acc + total < pick:
                    acc += total
                    continue
                for rule, a in entries:
                    acc += a
                    if pick < acc:
                        return rule, term, grand_total
                return self._tail_event(grand_total, preferred=term)
            return self._tail_event(grand_total)
        # uncached path
        events: list[tuple[Rule, Term, float]] = []
        grand_total = 0.0
        for term in self.term.walk_terms():
            entries, total = self._context_propensities(term)
            for rule, a in entries:
                events.append((rule, term, a))
                grand_total += a
        if grand_total <= 0.0:
            return None
        pick = self.rng.random() * grand_total
        acc = 0.0
        for rule, term, a in events:
            acc += a
            if pick < acc:
                return rule, term, grand_total
        rule, term, _ = events[-1]
        return rule, term, grand_total

    def step(self, t_max: float = math.inf) -> bool:
        """Execute one reaction, unless the system is exhausted or the next
        reaction would land beyond ``t_max`` (in which case the clock is
        moved to ``t_max``).  Returns True iff a reaction fired."""
        event = self._pick_event()
        if event is None:
            if t_max < math.inf:
                self.time = max(self.time, t_max)
            return False
        rule, context, grand_total = event
        tau = self.rng.expovariate(grand_total)
        if self.time + tau > t_max:
            # Exact: discard the residual exponential (memoryless).
            self.time = t_max
            return False
        self.time += tau
        self._apply(rule, context)
        self.steps += 1
        return True

    def observe(self) -> tuple[float, ...]:
        """Sample the model's observables at the current state."""
        return self.model.measure(self.term)

    @property
    def observable_names(self) -> tuple[str, ...]:
        return self.model.observable_names

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # the context cache is keyed by id(term), which names nothing in
        # another process (and would make a task's pickle depend on where
        # its terms happen to live): ship the entries, re-key on arrival
        return {**self.__dict__, "_cache": list(self._cache.values())}

    def __setstate__(self, state: dict) -> None:
        # re-key the cache to the unpickled terms, or refreshes miss
        # their old entry and the delta-maintained total drifts away from
        # the original's.  The attribute names go back interned, as the
        # default unpickling does, so an unpickled simulator shares them
        # with its model's and pickles to the same bytes
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._cache = {id(entry[0]): entry for entry in self._cache}

    # ------------------------------------------------------------------
    # rewriting
    # ------------------------------------------------------------------
    def _apply(self, rule: Rule, context: Term) -> None:
        match = select_match(rule.lhs, context, self.rng)
        if match is None:  # propensity said it matched; cache is stale
            raise RuntimeError(
                f"rule {rule.name!r} selected but no match found "
                "(propensity cache inconsistency)")
        structural = bool(rule.lhs.compartments or rule.rhs.compartments)
        # consume LHS
        context.atoms.remove_all(rule.lhs.atoms)
        for pattern, child in zip(rule.lhs.compartments, match.children):
            child.wrap.remove_all(pattern.wrap)
            child.content.atoms.remove_all(pattern.content)
        # produce RHS
        referenced: set[int] = set()
        for crhs in rule.rhs.compartments:
            if crhs.from_match is not None:
                referenced.add(crhs.from_match)
                child = match.children[crhs.from_match]
                if crhs.delete:
                    context.remove_compartment(child)
                elif crhs.dissolve:
                    context.dissolve_compartment(child)
                else:
                    if crhs.label is not None:
                        child.label = crhs.label
                    child.wrap.add_all(crhs.add_wrap)
                    child.content.atoms.add_all(crhs.add_content)
            else:
                from repro.cwc.term import Compartment
                context.add_compartment(Compartment(
                    crhs.label, crhs.add_wrap.copy(),
                    Term(crhs.add_content.copy())))
        for i, child in enumerate(match.children):
            if i not in referenced:
                context.remove_compartment(child)
        context.atoms.add_all(rule.rhs.atoms)
        # cache maintenance
        if self.cache_propensities:
            if structural:
                self._cache_valid = False
            elif self._cache_valid:
                self._refresh_context(context)
                # rules in the *parent* context may pattern-match this
                # compartment's content, so their propensities changed too
                if context.owner is not None and context.owner.parent is not None:
                    self._refresh_context(context.owner.parent)

    def __repr__(self) -> str:
        return (f"<CWCSimulator {self.model.name!r} t={self.time:.4g} "
                f"steps={self.steps}>")
