"""Flat reaction networks: the plain-Gillespie baseline and fast path.

The paper compares the CWC simulator against plain Gillespie simulators
(StochKit and GPU SSA implementations): a flat model has no compartments,
so state is just a species-count vector and the SSA inner loop avoids tree
matching entirely.  :class:`FlatSimulator` implements that baseline; for
any compartment-free :class:`~repro.cwc.model.Model` it is the
behaviourally identical fast path (:func:`ReactionNetwork.from_model`).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.cwc.gillespie import SampledSimulator
from repro.cwc.model import Model
from repro.cwc.multiset import Multiset


class StateView:
    """Read-only count accessor handed to functional rate laws.

    Implements the same ``count``/``__getitem__`` protocol as
    :class:`repro.cwc.rule.ContextView`, so one rate-law object works with
    both engines.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[str, int]):
        self._counts = counts

    def count(self, species: str) -> int:
        return self._counts.get(species, 0)

    def __getitem__(self, species: str) -> int:
        return self._counts.get(species, 0)


RateLaw = Union[float, int, Callable[[StateView], float]]


def _rate_law_reads(rate) -> Optional[set[str]]:
    """The species a functional rate law reads, or ``None`` when unknown
    (opaque callable: treated as reading the whole state)."""
    from repro.cwc import rates

    if isinstance(rate, rates.Constant):
        return set()
    if isinstance(rate, (rates.Linear, rates.HillRepression,
                         rates.HillActivation, rates.MichaelisMenten)):
        return {rate.species}
    if isinstance(rate, rates.Product):
        sides = set()
        for side in (rate.left, rate.right):
            if callable(side):
                reads = _rate_law_reads(side)
                if reads is None:
                    return None
                sides |= reads
        return sides
    return None


def _rate_token(rate) -> Optional[str]:
    """A canonical string for a rate law, or ``None`` when the law is an
    opaque callable (its behaviour cannot be captured by content).

    The picklable law classes of :mod:`repro.cwc.rates` are frozen
    dataclasses whose reprs list every parameter deterministically, so
    their repr *is* their content.
    """
    if not callable(rate):
        return f"k={float(rate)!r}"
    from repro.cwc import rates

    if isinstance(rate, rates.Product):
        left = _rate_token(rate.left)
        right = _rate_token(rate.right)
        if left is None or right is None:
            return None
        return f"product({left},{right})"
    if isinstance(rate, (rates.Constant, rates.Linear,
                         rates.HillRepression, rates.HillActivation,
                         rates.MichaelisMenten)):
        return repr(rate)
    return None


@dataclass(frozen=True)
class Reaction:
    """``reactants -> products`` with a mass-action constant or a rate law."""

    name: str
    reactants: tuple[tuple[str, int], ...]
    products: tuple[tuple[str, int], ...]
    rate: RateLaw

    def __post_init__(self) -> None:
        # precompiled evaluation data (the propensity is the inner-loop
        # hot spot of every scalar engine): reactant tuples pinned to a
        # local, the common comb(n,1)/comb(n,2) orders dispatched without
        # math.comb, and the callable test done once
        object.__setattr__(self, "_reactant_pairs", tuple(self.reactants))
        object.__setattr__(self, "_rate_is_callable", callable(self.rate))
        net: dict[str, int] = {}
        for species, need in self.reactants:
            net[species] = net.get(species, 0) - need
        for species, made in self.products:
            net[species] = net.get(species, 0) + made
        object.__setattr__(
            self, "_net_change",
            tuple((s, d) for s, d in net.items() if d != 0))

    @classmethod
    def make(cls, name: str, reactants: "Mapping[str, int] | str",
             products: "Mapping[str, int] | str", rate: RateLaw) -> "Reaction":
        def norm(spec) -> tuple[tuple[str, int], ...]:
            if isinstance(spec, str):
                spec = dict(Multiset.from_string(spec).items())
            return tuple(sorted(spec.items()))
        return cls(name, norm(reactants), norm(products), rate)

    @property
    def changed_species(self) -> tuple[tuple[str, int], ...]:
        """``(species, net change)`` pairs with a non-zero net change --
        the state delta one firing applies (catalysts cancel out)."""
        return self._net_change

    def propensity(self, counts: dict[str, int]) -> float:
        """Mass-action: ``k * prod C(n_i, m_i)``.  Functional rates give
        the *full* propensity themselves (the reactant list only defines
        what is consumed and gates the reaction on availability)."""
        h = 1
        for species, need in self._reactant_pairs:
            have = counts.get(species, 0)
            if have < need:
                return 0.0
            if need == 1:
                h *= have
            elif need == 2:
                h *= have * (have - 1) >> 1
            else:
                h *= math.comb(have, need)
        if self._rate_is_callable:
            return self.rate(StateView(counts))
        return self.rate * h

    def apply(self, counts: dict[str, int]) -> None:
        for species, need in self.reactants:
            counts[species] = counts.get(species, 0) - need
        for species, made in self.products:
            counts[species] = counts.get(species, 0) + made


class ReactionNetwork:
    """A set of species with initial counts plus reactions."""

    def __init__(self, name: str, initial: "Mapping[str, int] | str",
                 reactions: Sequence[Reaction],
                 observables: Sequence[str] | None = None):
        self.name = name
        if isinstance(initial, str):
            initial = dict(Multiset.from_string(initial).items())
        self.initial: dict[str, int] = dict(initial)
        self.reactions: tuple[Reaction, ...] = tuple(reactions)
        if not self.reactions:
            raise ValueError(f"network {name!r} has no reactions")
        species: set[str] = set(self.initial)
        for r in self.reactions:
            species.update(s for s, _ in r.reactants)
            species.update(s for s, _ in r.products)
        self.species: tuple[str, ...] = tuple(sorted(species))
        self.observables: tuple[str, ...] = (
            tuple(observables) if observables else self.species)
        unknown = set(self.observables) - set(self.species)
        if unknown:
            raise ValueError(f"unknown observables: {sorted(unknown)}")
        self._dependencies: Optional[tuple[tuple[int, ...], ...]] = None
        self._fingerprint: Optional[str] = None
        self._fingerprinted = False

    def fingerprint(self) -> Optional[str]:
        """A content hash of the network, or ``None`` when any rate law
        is an opaque callable (uncacheable: behaviour not captured by
        content).

        Covers everything compilation depends on -- species, initial
        counts, observables, and each reaction's stoichiometry and rate
        law (volume scaling ``omega`` is already baked into the rate
        constants by the model builders, so two networks built at
        different omegas hash differently).  The process-level compiled
        network cache (:func:`repro.cwc.batch.compile_network`) keys on
        this.
        """
        if self._fingerprinted:
            return self._fingerprint
        parts = [self.name,
                 ",".join(f"{s}={self.initial.get(s, 0)}"
                          for s in self.species),
                 "obs:" + ",".join(self.observables)]
        for reaction in self.reactions:
            token = _rate_token(reaction.rate)
            if token is None:
                self._fingerprinted = True
                return None
            parts.append(f"{reaction.name}|{reaction.reactants!r}|"
                         f"{reaction.products!r}|{token}")
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        self._fingerprint = digest
        self._fingerprinted = True
        return digest

    def with_rates(self, overrides: Mapping[str, float]
                   ) -> "ReactionNetwork":
        """A copy of this network with named reactions' mass-action rate
        constants replaced (the solo-run form of one sweep point).

        Only numeric (mass-action) rates can be overridden -- a sweep
        varies rate constants, and functional laws do not reduce to one.
        Raises ``KeyError`` for unknown reaction names and ``ValueError``
        for functional-rate targets.
        """
        known = {r.name for r in self.reactions}
        unknown = set(overrides) - known
        if unknown:
            raise KeyError(
                f"unknown reactions in rate overrides: {sorted(unknown)}")
        reactions = []
        for reaction in self.reactions:
            if reaction.name in overrides:
                if callable(reaction.rate):
                    raise ValueError(
                        f"reaction {reaction.name!r} has a functional "
                        "rate law; only mass-action constants can be "
                        "swept")
                reactions.append(Reaction(
                    reaction.name, reaction.reactants, reaction.products,
                    float(overrides[reaction.name])))
            else:
                reactions.append(reaction)
        return ReactionNetwork(self.name, dict(self.initial), reactions,
                               self.observables)

    def reaction_dependencies(self) -> tuple[tuple[int, ...], ...]:
        """The Gibson-Bruck dependency graph: ``deps[j]`` lists the
        reactions whose propensity may change after reaction ``j`` fires.

        A reaction's propensity *reads* its reactant species plus whatever
        its rate law reads (the picklable laws of :mod:`repro.cwc.rates`
        declare their species; an opaque callable is conservatively
        assumed to read everything).  Reaction ``i`` depends on ``j`` iff
        the read set of ``i`` intersects the net state change of ``j``.
        """
        if self._dependencies is not None:
            return self._dependencies
        reads: list[Optional[set[str]]] = []
        for reaction in self.reactions:
            read: Optional[set[str]] = {s for s, _ in reaction.reactants}
            if callable(reaction.rate):
                law_reads = _rate_law_reads(reaction.rate)
                read = None if law_reads is None else read | law_reads
            reads.append(read)
        deps = []
        for j, reaction in enumerate(self.reactions):
            changed = {s for s, _ in reaction.changed_species}
            deps.append(tuple(
                i for i, read in enumerate(reads)
                if read is None or read & changed))
        self._dependencies = tuple(deps)
        return self._dependencies

    @classmethod
    def from_model(cls, model: Model) -> "ReactionNetwork":
        """Flatten a compartment-free CWC model into a reaction network.

        Raises ``ValueError`` when the model uses compartments anywhere.
        """
        if not model.is_flat():
            raise ValueError(
                f"model {model.name!r} uses compartments; "
                "the flat fast path does not apply")
        reactions = [
            Reaction.make(rule.name,
                          dict(rule.lhs.atoms.items()),
                          dict(rule.rhs.atoms.items()),
                          rule.rate)
            for rule in model.rules
        ]
        initial = dict(model.term.atoms.items())
        observables = [o.species for o in model.observables]
        return cls(model.name, initial, reactions, observables)


def build_direct_loop(network: ReactionNetwork) -> Callable:
    """Generate and ``exec`` ``network``'s direct-method loop,
    ``direct(sim, target, once) -> fired`` (see :class:`FlatSimulator`).
    Memoised per process by :func:`repro.cwc.batch.direct_loop`.

    Locals: ``x<c>`` the count of species ``c``, ``a<j>`` the propensity
    of reaction ``j``, ``k<j>`` its mass-action constant, ``p<j>`` its
    bound :meth:`Reaction.propensity` when the rate is a law, ``n<c>``
    the species name.  Names, constants and laws reach the code only
    through the namespace (as parameter defaults); the source holds
    indices and stoichiometry.
    """
    species = network.species
    col = {s: c for c, s in enumerate(species)}
    reactions = network.reactions
    deps = network.reaction_dependencies()
    # counts no reaction changes are never stale in ``counts``
    mutable = sorted({col[s] for r in reactions
                      for s, _ in r.changed_species})
    laws = [j for j, r in enumerate(reactions) if callable(r.rate)]
    every = range(len(reactions))

    def gate(j: int) -> str:
        return " and ".join(f"x{col[s]} >= {need}"
                            for s, need in reactions[j].reactants)

    def mass_action(j: int) -> str:
        factors = []
        for s, need in reactions[j].reactants:
            x = f"x{col[s]}"
            factors.append(x if need == 1 else
                           f"({x} * ({x} - 1) >> 1)" if need == 2 else
                           f"_comb({x}, {need})")
        if not factors:
            return f"k{j} * 1"
        h = factors[0] if len(factors) == 1 else f"({' * '.join(factors)})"
        return f"k{j} * {h} if {gate(j)} else 0.0"

    def write_back(cols) -> list[str]:
        return [f"counts[n{c}] = x{c}" for c in cols]

    def law_reads(j: int) -> list[int]:
        reads = _rate_law_reads(reactions[j].rate)
        if reads is None:
            return mutable
        reads = reads | {s for s, _ in reactions[j].reactants}
        return [c for c in mutable if species[c] in reads]

    def assign(j: int, out: str) -> list[str]:
        if j not in laws:
            return [f"{out} = {mass_action(j)}"]
        call = [*write_back(law_reads(j)), f"{out} = p{j}(counts)"]
        if not reactions[j].reactants:
            return call
        return [f"if {gate(j)}:", *("    " + line for line in call),
                "else:", f"    {out} = 0.0"]

    props = ", ".join(f"a{j}" for j in every)
    recompute = [line for j in every for line in assign(j, f"a{j}")]
    recompute.append(f"total = _sum(({props},))")

    def fire(j: int) -> list[str]:
        body = [f"x{col[s]} {'+' if d > 0 else '-'}= {abs(d)}"
                for s, d in reactions[j].changed_species]
        body.append("delta = 0.0")
        for i in deps[j]:
            body += assign(i, "new")
            body += [f"delta += new - a{i}", f"a{i} = new"]
        return body + [
            "total += delta",
            "since += 1",
            "if since >= resum:",
            f"    total = _sum(({props},))",
            "    since = 0"]

    select = []
    for j in every:
        if len(reactions) == 1:
            head = None
        elif j == 0:
            head = "if pick < (acc := 0.0 + a0):"
        elif j < len(reactions) - 1:
            head = f"elif pick < (acc := acc + a{j}):"
        else:
            head = "else:"
        ind = "" if head is None else "    "
        select += ([head] if head else []) + [ind + l for l in fire(j)]

    def block(lines, depth: int) -> str:
        pad = "    " * depth
        return "\n".join(pad + line for line in lines)

    # bound as parameter defaults: locals at no per-call cost
    bound = {**{f"k{j}": reactions[j].rate for j in every if j not in laws},
             **{f"p{j}": reactions[j].propensity for j in laws},
             **{f"n{c}": s for c, s in enumerate(species)}}
    params = "".join(f", {name}=_{name}" for name in bound)
    source = f"""\
def direct(sim, target, once{params}):
    t = sim.time
    if not (t < target or once):
        return False
    counts = sim.counts
{block([f"x{c} = counts.get(n{c}, 0)" for c in range(len(species))], 1)}
    rand = sim.rng.random
    resum = sim.RESUM_INTERVAL
    steps = sim.steps
    if sim._props_valid:
        {props}, = sim._props
        total = sim._total
        since = sim._steps_since_resum
    else:
{block(recompute, 2)}
        since = 0
    fired = False
    while t < target or once:
        if total <= 0.0:
            # drift could leave a tiny negative total while some
            # propensity is still positive: settle it exactly
{block(recompute, 3)}
            since = 0
            if total <= 0.0:
                if target < _inf:
                    t = _max(t, target)
                break
        # random.expovariate's body: the same random() call and bits
        tau = -_log(1.0 - rand()) / total
        if t + tau > target:
            t = target
            break
        pick = rand() * total
{block(select, 2)}
        t += tau
        steps += 1
        if once:
            fired = True
            break
{block(write_back(mutable), 1)}
    sim.time = t
    sim.steps = steps
    sim._props = [{props}]
    sim._total = total
    sim._props_valid = True
    sim._steps_since_resum = since
    return fired
"""
    namespace = {f"_{name}": value for name, value in bound.items()}
    namespace.update(_sum=sum, _max=max, _inf=math.inf, _comb=math.comb,
                     _log=math.log)
    exec(compile(source, f"<direct loop of {len(reactions)} reactions>",
                 "exec"), namespace)
    return namespace["direct"]


class FlatSimulator(SampledSimulator):
    """Plain Gillespie direct method on a species-count vector.

    Exposes the same trajectory interface as
    :class:`~repro.cwc.gillespie.CWCSimulator` (``time``, ``steps``,
    ``advance``, ``run``, ``observe``), so the simulation pipeline can farm
    either engine interchangeably.

    The SSA loop is generated per network (:func:`build_direct_loop`):
    species counts live in locals, mass-action propensities are inlined,
    the reaction is selected by the running ``acc`` chain and, after a
    firing, only the propensities in the Gibson-Bruck dependency graph
    of the fired reaction are recomputed, with the running total kept
    by their delta.  The total is re-summed exactly every
    :data:`RESUM_INTERVAL` events to keep float drift bounded.  A
    functional rate law is called through :meth:`Reaction.propensity`
    once the counts it reads are written back.  Every arithmetic step
    is the one the per-event interpreter took, so the trajectories are
    that interpreter's, byte for byte.
    """

    #: steps between exact re-summations of the total propensity
    RESUM_INTERVAL = 4096

    def __init__(self, network: ReactionNetwork, seed: Optional[int] = None):
        self.network = network
        self.counts: dict[str, int] = dict(network.initial)
        for species in network.species:
            self.counts.setdefault(species, 0)
        self.time = 0.0
        self.steps = 0
        self.rng = random.Random(seed)
        self._props: list[float] = []
        self._total = 0.0
        self._props_valid = False
        self._steps_since_resum = 0
        self._loop: Optional[Callable] = None

    def __getstate__(self) -> dict:
        # generated code does not pickle: rebuilt (or found in the
        # process cache) on first use over there
        return {**self.__dict__, "_loop": None}

    @property
    def model(self) -> ReactionNetwork:
        return self.network

    def _direct(self) -> Callable:
        if self._loop is None:
            from repro.cwc.batch import direct_loop
            self._loop = direct_loop(self.network)
        return self._loop

    def total_propensity(self) -> float:
        if not self._props_valid:
            self._props = [r.propensity(self.counts)
                           for r in self.network.reactions]
            self._total = sum(self._props)
            self._props_valid = True
            self._steps_since_resum = 0
        return self._total

    def step(self, t_max: float = math.inf) -> bool:
        """One SSA step; see :meth:`CWCSimulator.step` for semantics."""
        return self._direct()(self, t_max, True)

    def advance(self, quantum: float) -> float:
        self._direct()(self, self.time + quantum, False)
        return self.time

    def observe(self) -> tuple[float, ...]:
        return tuple(float(self.counts[s]) for s in self.network.observables)

    @property
    def observable_names(self) -> tuple[str, ...]:
        return self.network.observables

    def __repr__(self) -> str:
        return (f"<FlatSimulator {self.network.name!r} t={self.time:.4g} "
                f"steps={self.steps}>")
