"""Byte-identity of the plan-compiled lockstep loops against the frozen
pre-plan loops.

The oracle below is the lockstep engine as it stood before the
propensity plan and the preallocated workspace: ``propensities_T``
looping reactions in Python, ``np.cumsum`` / ``np.clip`` / ``.any()``,
per-iteration temporaries, ``searchsorted`` stream bounds per phase and
``rng.exponential(1.0, size=m)`` draws.  It is kept verbatim (only
re-homed from methods to functions) and must never be "optimised": it
is what every later kernel change is measured against.  For every case
the new loops must leave ``counts`` / ``times`` / ``steps`` /
``exhausted`` and every generator's ``bit_generator.state`` byte-equal
to the oracle's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cwc import Reaction, ReactionNetwork
from repro.cwc.batch import BatchFlatSimulator, CompiledNetwork
from repro.cwc.kernels import numpy_leap_fire, numpy_leap_tau
from repro.cwc.rates import (
    Constant,
    HillActivation,
    HillRepression,
    Linear,
    MichaelisMenten,
    Product,
)
from repro.models import (
    lotka_volterra_network,
    mm_enzyme_network,
    neurospora_network,
    toggle_switch_network,
)


# ---------------------------------------------------------------------------
# the frozen oracle
# ---------------------------------------------------------------------------

def oracle_combinatorics(compiled, X, j):
    h = 1.0
    for col, need in compiled._reactants[j]:
        n = X[:, col]
        if need == 1:
            h = h * n
        elif need == 2:
            h = h * (n * (n - 1) * 0.5)
        else:
            factor = n.astype(np.float64)
            term = factor.copy()
            for d in range(1, need):
                term = term * (factor - d)
            h = h * (term / math.factorial(need))
    if isinstance(h, float):
        return np.full(X.shape[0], h)
    return h.astype(np.float64, copy=False)


def oracle_propensities_T(compiled, X, rates_rows=None):
    out = np.empty((compiled.n_reactions, X.shape[0]))
    for j in range(compiled.n_reactions):
        if j in compiled._functional_set:
            continue
        rate = (compiled._rates[j] if rates_rows is None
                else rates_rows[:, j])
        np.multiply(rate, oracle_combinatorics(compiled, X, j), out=out[j])
    for j, law in compiled._functional:
        value = law(X)
        for col, need in compiled._reactants[j]:
            value = np.where(X[:, col] >= need, value, 0.0)
        out[j] = value
    return out


def oracle_draw(sim, rs, m, uniform):
    if rs is None:
        return (sim.rng.random(m) if uniform
                else sim.rng.exponential(1.0, size=m))
    draws = np.empty(m)
    bounds = np.searchsorted(rs, np.arange(len(sim._streams) + 1))
    for s, rng in enumerate(sim._streams):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if hi > lo:
            if uniform:
                draws[lo:hi] = rng.random(hi - lo)
            else:
                draws[lo:hi] = rng.exponential(1.0, size=hi - lo)
    return draws


def oracle_draw_poisson(sim, rs_sub, lam):
    if rs_sub is None:
        return sim.rng.poisson(lam).astype(np.float64)
    out = np.empty(lam.shape)
    bounds = np.searchsorted(rs_sub, np.arange(len(sim._streams) + 1))
    for s, rng in enumerate(sim._streams):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if hi > lo:
            out[lo:hi] = rng.poisson(lam[lo:hi])
    return out


def oracle_advance_to(sim, targets):
    targets = np.broadcast_to(np.asarray(targets, dtype=np.float64),
                              (sim.n,)).copy()
    np.maximum(sim.times, targets, out=targets)
    sim.times[sim.exhausted] = targets[sim.exhausted]
    if sim.method != "exact":
        return oracle_advance_to_leap(sim, targets)
    active = np.flatnonzero(~sim.exhausted & (sim.times < targets))
    if not active.size:
        return sim.times
    X = sim.counts[active].astype(np.float64)
    tw = sim.times[active].copy()
    trg = targets[active]
    new_steps = np.zeros(active.size, dtype=np.int64)
    rr = None if sim.row_rates is None else sim.row_rates[active]
    rs = None if sim._stream_of is None else sim._stream_of[active]
    stoich = sim.compiled.stoich.astype(np.float64)
    n_reactions = sim.compiled.n_reactions

    def retire(done, exhausted=False):
        nonlocal active, X, tw, trg, new_steps, rr, rs
        idx = active[done]
        sim.counts[idx] = X[done].astype(np.int64)
        sim.times[idx] = targets[idx]
        sim.steps[idx] += new_steps[done]
        if exhausted:
            sim.exhausted[idx] = True
        keep = ~done
        active, X, tw = active[keep], X[keep], tw[keep]
        trg, new_steps = trg[keep], new_steps[keep]
        if rr is not None:
            rr = rr[keep]
        if rs is not None:
            rs = rs[keep]
        return keep

    while active.size:
        cumulative = np.cumsum(
            oracle_propensities_T(sim.compiled, X, rr), axis=0)
        totals = cumulative[-1]

        dead = totals <= 0.0
        if dead.any():
            keep = retire(dead, exhausted=True)
            if not active.size:
                break
            cumulative = cumulative[:, keep]
            totals = cumulative[-1]

        taus = oracle_draw(sim, rs, active.size, False) / totals
        new_times = tw + taus
        over = new_times >= trg
        if over.any():
            keep = retire(over)
            if not active.size:
                break
            cumulative = cumulative[:, keep]
            totals = cumulative[-1]
            new_times = new_times[keep]

        picks = oracle_draw(sim, rs, active.size, True) * totals
        chosen = (cumulative < picks[None, :]).sum(axis=0)
        np.clip(chosen, 0, n_reactions - 1, out=chosen)
        X += stoich[chosen]
        tw = new_times
        new_steps += 1
    return sim.times


def oracle_advance_to_leap(sim, targets):
    active = np.flatnonzero(~sim.exhausted & (sim.times < targets))
    if not active.size:
        return sim.times
    X = sim.counts[active].astype(np.float64)
    tw = sim.times[active].copy()
    trg = targets[active]
    new_steps = np.zeros(active.size, dtype=np.int64)
    new_leaps = np.zeros(active.size, dtype=np.int64)
    new_exact = np.zeros(active.size, dtype=np.int64)
    rr = None if sim.row_rates is None else sim.row_rates[active]
    rs = None if sim._stream_of is None else sim._stream_of[active]
    stoich = sim.compiled.stoich.astype(np.float64)
    n_reactions = sim.compiled.n_reactions
    rcols = sim.compiled.reactant_columns

    def retire(done, exhausted=False):
        nonlocal active, X, tw, trg, new_steps, new_leaps, new_exact
        nonlocal rr, rs
        idx = active[done]
        sim.counts[idx] = X[done].astype(np.int64)
        sim.times[idx] = targets[idx]
        sim.steps[idx] += new_steps[done]
        sim.leaps[idx] += new_leaps[done]
        sim.exact_steps[idx] += new_exact[done]
        if exhausted:
            sim.exhausted[idx] = True
        keep = ~done
        active, X, tw = active[keep], X[keep], tw[keep]
        trg, new_steps = trg[keep], new_steps[keep]
        new_leaps, new_exact = new_leaps[keep], new_exact[keep]
        if rr is not None:
            rr = rr[keep]
        if rs is not None:
            rs = rs[keep]
        return keep

    while active.size:
        cumulative = np.cumsum(
            oracle_propensities_T(sim.compiled, X, rr), axis=0)
        totals = cumulative[-1]
        dead = totals <= 0.0
        if dead.any():
            keep = retire(dead, exhausted=True)
            if not active.size:
                break
            cumulative = cumulative[:, keep]
            totals = cumulative[-1]

        a = np.empty_like(cumulative)
        a[0] = cumulative[0]
        a[1:] = cumulative[1:] - cumulative[:-1]
        tau_cgp = numpy_leap_tau(a, X, stoich, sim.epsilon)
        leap = tau_cgp * totals >= sim.ssa_threshold
        if sim.method == "hybrid" and rcols.size:
            leap &= X[:, rcols].min(axis=1) >= sim.pop_threshold

        retire_mask = np.zeros(active.size, dtype=bool)

        def exact_step(sub):
            taus = oracle_draw(sim, None if rs is None else rs[sub],
                               sub.size, False) / totals[sub]
            nt = tw[sub] + taus
            over = nt >= trg[sub]
            retire_mask[sub[over]] = True
            go = sub[~over]
            if not go.size:
                return
            picks = oracle_draw(sim, None if rs is None else rs[go],
                                go.size, True) * totals[go]
            cum_go = np.ascontiguousarray(cumulative[:, go])
            chosen = (cum_go < picks[None, :]).sum(axis=0)
            np.clip(chosen, 0, n_reactions - 1, out=chosen)
            X[go] += stoich[chosen]
            tw[go] = nt[~over]
            new_steps[go] += 1
            new_exact[go] += 1

        exact_rows = np.flatnonzero(~leap)
        if exact_rows.size:
            exact_step(exact_rows)

        pending = np.flatnonzero(leap)
        if pending.size:
            ptau = np.minimum(tau_cgp[pending], trg[pending] - tw[pending])
            for _attempt in range(sim.MAX_LEAP_ATTEMPTS):
                lam = a[:, pending].T * ptau[:, None]
                fires = oracle_draw_poisson(
                    sim, None if rs is None else rs[pending], lam)
                Xp = X[pending]
                ok = numpy_leap_fire(Xp, stoich, fires)
                X[pending] = Xp
                committed = pending[ok]
                if committed.size:
                    tw[committed] += ptau[ok]
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
                exact_step(pending)

        if retire_mask.any():
            retire(retire_mask)
    return sim.times


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def assert_identical(new: BatchFlatSimulator, ref: BatchFlatSimulator):
    assert new.counts.tobytes() == ref.counts.tobytes()
    assert new.times.tobytes() == ref.times.tobytes()
    assert new.steps.tobytes() == ref.steps.tobytes()
    assert new.leaps.tobytes() == ref.leaps.tobytes()
    assert new.exact_steps.tobytes() == ref.exact_steps.tobytes()
    assert new.exhausted.tobytes() == ref.exhausted.tobytes()
    for ours, theirs in zip(new._streams, ref._streams):
        assert ours.bit_generator.state == theirs.bit_generator.state


def check(network, n=12, targets=(0.7, 1.5, 3.0), seed=42, **kwargs):
    """Drive one simulator through the engine and its twin through the
    oracle, comparing after every call (so a divergence is pinned to
    the call that caused it)."""
    new = BatchFlatSimulator(network, n, seed=seed, **kwargs)
    ref = BatchFlatSimulator(network, n, seed=seed, **kwargs)
    for target in targets:
        new.advance_to(target)
        oracle_advance_to(ref, target)
        assert_identical(new, ref)
    assert ref.total_steps > 0
    return new


def dimer_network():
    return ReactionNetwork("dimer", {"a": 80, "d": 5}, [
        Reaction.make("bind", {"a": 2}, {"d": 1}, 0.004),
        Reaction.make("unbind", {"d": 1}, {"a": 2}, 0.3),
        Reaction.make("birth", {}, {"a": 1}, 2.0),       # zero-order
        Reaction.make("pair", {"a": 2, "d": 1}, {"d": 2}, 1e-4),
    ])


def trimer_network():
    return ReactionNetwork("trimer", {"a": 60, "b": 20}, [
        Reaction.make("form", {"a": 3}, {"t": 1}, 1e-4),
        Reaction.make("decay", {"t": 1}, {"a": 3}, 0.5),
        Reaction.make("swap", {"a": 1, "b": 1}, {"b": 2}, 0.01),
        Reaction.make("quad", {"b": 4}, {"a": 4}, 1e-5),
    ])


def _opaque_law(view):
    return 0.02 * view.count("a") + 0.5


def gated_network():
    """Functional laws whose reactants are *not* the species the law
    reads (explicit availability gates), next to self-gating ones, a
    gate of two copies, and every law shape the plan knows."""
    return ReactionNetwork("gated", {"a": 6, "b": 4, "c": 30, "e": 3}, [
        # law reads c, reaction consumes a: gated by a different species
        Reaction.make("mm_other", {"a": 1}, {"b": 1},
                      MichaelisMenten(4.0, 2.0, "c", 5.0)),
        # law reads b and consumes b: +0.0 at b == 0, its own gate
        Reaction.make("mm_self", {"b": 1}, {"a": 1},
                      MichaelisMenten(3.0, 1.5, "b", 5.0)),
        # repression is > 0 at zero copies of what it consumes: gated
        Reaction.make("rep_self", {"e": 1}, {"c": 1},
                      HillRepression(2.0, 1.0, 2.0, "e", 4.0)),
        Reaction.make("act_two", {"c": 2}, {"e": 1, "c": 1},
                      HillActivation(5.0, 3.0, 3.0, "c", 5.0)),
        Reaction.make("act_self", {"a": 1}, {"a": 2},
                      HillActivation(1.0, 2.0, 2.5, "a", 3.0)),
        Reaction.make("lin", {"c": 1}, {}, Linear(0.05, "c")),
        Reaction.make("const", {}, {"c": 1}, Constant(1.5)),
        Reaction.make("prod", {"a": 1, "e": 1}, {"e": 2},
                      Product(Linear(0.1, "a"), 0.7)),
        Reaction.make("opaque", {"b": 1}, {}, _opaque_law),
        Reaction.make("decay_a", {"a": 1}, {}, 0.4),
    ])


def exhausting_network():
    """Pure decay: every trajectory runs out of propensity."""
    return ReactionNetwork("decay", {"a": 8, "b": 3}, [
        Reaction.make("a_to_b", {"a": 1}, {"b": 1}, 1.0),
        Reaction.make("b_out", {"b": 1}, {}, 2.0),
    ])


CASES = {
    "neurospora": lambda: neurospora_network(omega=30),
    "lotka-volterra": lambda: lotka_volterra_network(
        prey0=100, predator0=100, birth=1.0, predation=0.01, death=1.0),
    "enzyme": lambda: mm_enzyme_network(omega=40),
    "toggle": lambda: toggle_switch_network(omega=15),
    "dimer-need2": dimer_network,
    "trimer-need3": trimer_network,
    "gated-functional": gated_network,
}


class TestExactLoopIdentity:
    @pytest.mark.parametrize("case", CASES)
    def test_models(self, case):
        check(CASES[case]())

    def test_exhausting_network(self):
        sim = check(exhausting_network(), n=16, targets=(0.5, 2.0, 40.0))
        assert sim.exhausted.all()
        # an exhausted block keeps following its targets
        check(exhausting_network(), n=4, targets=(40.0, 50.0))

    def test_plan_propensities_equal_oracle(self):
        """The propensity matrix itself, including states that are short
        of reactants (every gate and every comb(n, m) = 0 branch)."""
        rng = np.random.default_rng(3)
        for make in CASES.values():
            compiled = CompiledNetwork(make())
            X = rng.integers(0, 5, size=(200, compiled.n_species)
                             ).astype(np.float64)
            rows = rng.random((200, compiled.n_reactions))
            for rates_rows in (None, rows):
                assert (compiled.propensities_T(X, rates_rows).tobytes()
                        == oracle_propensities_T(
                            compiled, X, rates_rows).tobytes())

    def test_per_row_targets(self):
        network = neurospora_network(omega=30)
        rng = np.random.default_rng(9)
        new = BatchFlatSimulator(network, 10, seed=5)
        ref = BatchFlatSimulator(network, 10, seed=5)
        for _ in range(4):
            quantum = rng.uniform(0.0, 1.5, size=10)
            quantum[rng.integers(10)] = 0.0    # a row that stays put
            targets = new.times + quantum
            new.advance_to(targets)
            oracle_advance_to(ref, targets)
            assert_identical(new, ref)

    def test_row_rates(self):
        network = neurospora_network(omega=30)
        compiled = CompiledNetwork(network)
        rates = np.stack([
            compiled.rates_for({"translation": 0.2 + 0.1 * i,
                                "transport_in": 0.3 + 0.05 * i})
            for i in range(9)])
        check(network, n=9, row_rates=rates)

    def test_rng_streams_with_unequal_groups(self):
        network = neurospora_network(omega=30)
        compiled = CompiledNetwork(network)
        sizes = (1, 5, 2, 7)
        rates = np.repeat(np.stack([
            compiled.rates_for({"translation": 0.3 + 0.2 * p})
            for p in range(len(sizes))]), sizes, axis=0)
        check(network, n=sum(sizes), row_rates=rates, seed=None,
              rng_streams=[(size, 100 + p)
                           for p, size in enumerate(sizes)])

    def test_streams_on_an_exhausting_network(self):
        """Whole stream groups retire (dead and on target) mid-call."""
        check(exhausting_network(), n=9, seed=None,
              targets=(0.3, 1.0, 30.0),
              rng_streams=[(2, 7), (3, 8), (4, 9)])


@st.composite
def mass_action_networks(draw):
    """Small random mass-action networks of order 0 to 6.  No reaction
    makes more molecules than it consumes (zero-order ones make one):
    order >= 2 autocatalysis blows up in finite time."""
    n_species = draw(st.integers(1, 4))
    names = [f"s{i}" for i in range(n_species)]
    side = st.dictionaries(st.sampled_from(names), st.integers(1, 3),
                           max_size=2)
    reactions = []
    for j in range(draw(st.integers(1, 5))):
        reactants, products = draw(side), {}
        budget = max(1, sum(reactants.values()))
        for name, made in draw(side).items():
            if min(made, budget):
                products[name] = min(made, budget)
                budget -= products[name]
        reactions.append(Reaction.make(
            f"r{j}", reactants, products, draw(st.floats(0.01, 2.0))))
    initial = {s: draw(st.integers(0, 25)) for s in names}
    return ReactionNetwork("random", initial, reactions)


class TestRandomNetworks:
    @given(network=mass_action_networks(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_random_mass_action_networks(self, network, seed):
        new = BatchFlatSimulator(network, 6, seed=seed)
        ref = BatchFlatSimulator(network, 6, seed=seed)
        # about ten events per row and call at the initial propensity
        quantum = 10.0 / (1.0 + new.compiled.propensities(
            new.counts[:1]).sum())
        for target in (quantum, 2 * quantum, 3 * quantum):
            new.advance_to(target)
            oracle_advance_to(ref, target)
            assert_identical(new, ref)


class TestLeapLoopIdentity:
    """The leap loop keeps its own draws; it moved onto the workspace
    and the kernel object and must not have moved a bit either."""

    def test_tau(self):
        sim = check(lotka_volterra_network(omega=400), n=8, method="tau",
                    targets=(0.4, 0.8, 1.2))
        assert sim.leaps.sum() > 0

    def test_hybrid_with_streams_and_row_rates(self):
        network = neurospora_network(omega=80)
        compiled = CompiledNetwork(network)
        sizes = (3, 1, 4)
        rates = np.repeat(np.stack([
            compiled.rates_for({"translation": 0.4 + 0.1 * p})
            for p in range(len(sizes))]), sizes, axis=0)
        sim = check(network, n=sum(sizes), method="hybrid", seed=None,
                    row_rates=rates, targets=(1.0, 2.5),
                    rng_streams=[(size, 50 + p)
                                 for p, size in enumerate(sizes)])
        assert sim.leaps.sum() > 0 and sim.exact_steps.sum() > 0

    def test_tau_on_an_exhausting_network(self):
        check(exhausting_network(), n=6, method="tau",
              targets=(0.5, 30.0))
