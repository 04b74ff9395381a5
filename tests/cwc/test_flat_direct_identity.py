"""The generated direct-method loop against the frozen per-step oracle.

:class:`~repro.cwc.network.FlatSimulator` runs one generated loop per
network; :class:`tests.oracles.flat_direct.FlatDirectOracle` is the
per-event interpreter it replaced.  Seeded alike and driven alike, the
two must agree byte for byte after every call: sampled times and
values, clock, ``steps``, counts, the propensity cache, ``_total`` and
the RNG state.  Floats are compared through ``repr``, which tells
``-0.0`` from ``0.0`` and an int from the float it equals.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cwc.network import FlatSimulator, Reaction, ReactionNetwork
from repro.models import (lotka_volterra_network, mm_enzyme_network,
                          neurospora_network, toggle_switch_network)
from tests.oracles.flat_direct import FlatDirectOracle


def dimerisation() -> ReactionNetwork:
    return ReactionNetwork("dimer", {"A": 40}, [
        Reaction.make("dimerise", {"A": 2}, {"B": 1}, 0.02),
        Reaction.make("split", {"B": 1}, {"A": 2}, 0.3)])


def trimerisation() -> ReactionNetwork:
    return ReactionNetwork("trimer", {"A": 30, "C": 0}, [
        Reaction.make("trimerise", {"A": 3, "C": 1}, {"C": 2}, 1e-4),
        Reaction.make("seed", {"A": 3}, {"C": 1}, 2e-4),
        Reaction.make("split", {"C": 1}, {"A": 3}, 0.1)])


def birth_death() -> ReactionNetwork:
    # a zero-reactant source, and an int constant kept as an int
    return ReactionNetwork("birth-death", {"A": 0}, [
        Reaction.make("birth", {}, {"A": 1}, 5),
        Reaction.make("death", {"A": 1}, {}, 0.25)])


def rounding() -> ReactionNetwork:
    # found by search to be order-sensitive: on a total of a few units,
    # each firing's delta is a sum of three or four inexact terms, two
    # of them from reactions that change nothing but read what others
    # change, so adding those terms in another order changes ``_total``
    return ReactionNetwork("rounding", {"A": 5, "B": 6, "C": 12}, [
        Reaction.make("annihilate", {"C": 2}, {}, 0.535),
        Reaction.make("convert", {"A": 1, "C": 2}, {"B": 2}, 0.611),
        Reaction.make("idle_b", {"B": 1}, {"B": 1}, 0.017),
        Reaction.make("idle_ac", {"A": 2, "C": 2}, {"A": 2, "C": 2}, 0.768),
        Reaction.make("inflow", {}, {"A": 1}, 1.646)])


def opaque_rate(state) -> float:
    return 0.1 * state["A"] + 0.01 * state["B"]


def opaque_law() -> ReactionNetwork:
    # no content hash: the loop is kept per network object, and the law
    # is assumed to read every species
    return ReactionNetwork("opaque", {"A": 20, "B": 5}, [
        Reaction.make("convert", {"A": 1}, {"B": 1}, opaque_rate),
        Reaction.make("back", {"B": 1}, {"A": 1}, 0.2)])


#: name -> (network factory, t_end, sample_every)
NETWORKS = {
    "mm-omega100": (lambda: mm_enzyme_network(100.0), 4.0, 0.3),
    # total propensity reaches 0: every substrate becomes product
    "mm-omega3": (lambda: mm_enzyme_network(3.0), 60.0, 7.0),
    "toggle": (lambda: toggle_switch_network(20.0), 6.0, 0.5),
    "neurospora": (lambda: neurospora_network(20.0), 12.0, 1.5),
    # ~60 k events in 2 time units: crosses the 4096-event re-sum
    "lotka-volterra": (lotka_volterra_network, 2.0, 0.7),
    "dimerisation": (dimerisation, 20.0, 1.1),
    "trimerisation": (trimerisation, 40.0, 3.0),
    "birth-death": (birth_death, 20.0, 2.5),
    "rounding": (rounding, 4.0, 0.5),
    "opaque-law": (opaque_law, 10.0, 0.9),
}


def state(sim) -> str:
    return repr((sim.time, sim.steps, sorted(sim.counts.items()),
                 sim._props, sim._total, sim._props_valid,
                 sim._steps_since_resum, sim.rng.getstate()))


def pair(name: str, seed: int):
    factory, t_end, every = NETWORKS[name]
    network = factory()
    return (FlatSimulator(network, seed=seed),
            FlatDirectOracle(network, seed=seed), t_end, every)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", NETWORKS)
class TestAgainstOracle:
    def test_run(self, name, seed):
        engine, oracle, t_end, every = pair(name, seed)
        got, want = engine.run(t_end, every), oracle.run(t_end, every)
        assert repr((got.times, got.samples, got.steps)) == \
            repr((want.times, want.samples, want.steps))
        assert state(engine) == state(oracle)

    def test_quanta_off_the_grid(self, name, seed):
        engine, oracle, t_end, _ = pair(name, seed)
        quantum = t_end / 7.3
        while engine.time < t_end:
            assert repr(engine.advance(quantum)) == \
                repr(oracle.advance(quantum))
            assert state(engine) == state(oracle)

    def test_single_steps(self, name, seed):
        engine, oracle, t_end, _ = pair(name, seed)
        limits = [t_end / 3, math.inf, t_end / 5, t_end]  # one in the past
        for n in range(400):
            t_max = limits[n % len(limits)]
            assert engine.step(t_max) is oracle.step(t_max)
            assert state(engine) == state(oracle)

    def test_snapshot_restore_mid_run(self, name, seed):
        engine, oracle, t_end, every = pair(name, seed)
        engine.advance(t_end / 3)
        oracle.advance(t_end / 3)
        saved = pickle.dumps(engine, 5)   # the runtime's checkpoint
        engine.advance(t_end / 4)
        engine = pickle.loads(saved)   # rewinds; the loop is rebuilt
        got, want = engine.run(t_end, every), oracle.run(t_end, every)
        assert repr((got.times, got.samples)) == \
            repr((want.times, want.samples))
        assert state(engine) == state(oracle)

    def test_pickle_mid_run(self, name, seed):
        engine, oracle, t_end, every = pair(name, seed)
        engine.advance(t_end / 2)
        oracle.advance(t_end / 2)
        blob = pickle.dumps(engine, 5)
        moved = pickle.loads(blob)
        assert moved._loop is None   # nothing generated crosses a pickle
        assert pickle.dumps(moved, 5) == blob
        moved.advance(t_end / 2)
        engine.advance(t_end / 2)
        oracle.advance(t_end / 2)
        assert state(moved) == state(engine) == state(oracle)


def test_absorbing_state_is_reached():
    engine, oracle, t_end, every = pair("mm-omega3", 0)
    engine.run(t_end, every)
    oracle.run(t_end, every)
    assert engine.counts["S"] == engine.counts["ES"] == 0
    assert engine._total == 0.0 and engine.time == t_end
    assert not engine.step() and engine.time == t_end
    assert not engine.step(t_end + 1.5) and engine.time == t_end + 1.5
    oracle.step()
    oracle.step(t_end + 1.5)
    assert state(engine) == state(oracle)


def test_one_advance_crosses_the_resum():
    engine, oracle, _, _ = pair("lotka-volterra", 3)
    engine.advance(1.0)
    oracle.advance(1.0)
    assert engine.steps > 2 * FlatSimulator.RESUM_INTERVAL
    assert state(engine) == state(oracle)


def test_int_and_float_constants_get_their_own_loops():
    # one content hash (the hash prints 5 like 5.0), two loops: each
    # multiplies by its own constant, so the propensities keep its type
    as_float = ReactionNetwork("birth-death", {"A": 0}, [
        Reaction.make("birth", {}, {"A": 1}, 5.0),
        Reaction.make("death", {"A": 1}, {}, 0.25)])
    assert as_float.fingerprint() == birth_death().fingerprint()
    for network in (birth_death(), as_float, birth_death()):
        engine = FlatSimulator(network, seed=2)
        oracle = FlatDirectOracle(network, seed=2)
        engine.advance(3.0)
        oracle.advance(3.0)
        assert state(engine) == state(oracle)


@st.composite
def mass_action_networks(draw):
    """Up to four species and five reactions of order 0-3; no reaction
    makes more molecules than it takes (a source makes one), so no run
    can explode."""
    n_species = draw(st.integers(1, 4))
    names = [f"s{i}" for i in range(n_species)]
    stoich = st.dictionaries(st.sampled_from(names), st.integers(1, 3),
                             max_size=2)
    rate = st.one_of(st.floats(1e-3, 0.1), st.just(1))
    reactions = []
    for j in range(draw(st.integers(1, 5))):
        reactants = draw(stoich)
        bound = sum(reactants.values()) or 1
        products = draw(stoich.filter(lambda p: sum(p.values()) <= bound))
        reactions.append(Reaction.make(f"r{j}", reactants, products,
                                       draw(rate)))
    initial = {s: draw(st.integers(0, 15)) for s in names}
    return ReactionNetwork("random", initial, reactions)


@settings(max_examples=60, deadline=None)
@given(network=mass_action_networks(), seed=st.integers(0, 2**16),
       quantum=st.floats(0.01, 0.2))
def test_random_mass_action_networks(network, seed, quantum):
    engine = FlatSimulator(network, seed=seed)
    oracle = FlatDirectOracle(network, seed=seed)
    for _ in range(6):
        engine.advance(quantum)
        oracle.advance(quantum)
        assert state(engine) == state(oracle)
