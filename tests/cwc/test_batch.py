"""Batch SSA engine: compiled-network equivalence and distributional tests."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.cwc.batch import BatchFlatSimulator, CompiledNetwork, batch_simulator
from repro.cwc.network import FlatSimulator, Reaction, ReactionNetwork
from repro.models import (
    lotka_volterra_network,
    neurospora_network,
    toggle_switch_network,
)

# the benchmark runs under this filter: a warning in the lockstep loop
# (a stale value in a dead lane, say) fails here as it fails there
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_states(network, rng, n):
    """Random count matrices roughly around the initial state."""
    initial = np.array([network.initial.get(s, 0) for s in network.species])
    X = rng.integers(0, np.maximum(initial * 2, 10) + 1,
                     size=(n, len(network.species)))
    return X.astype(np.int64)


class TestCompiledNetwork:
    @pytest.mark.parametrize("maker", [
        lambda: neurospora_network(omega=20),
        toggle_switch_network,
        lotka_volterra_network,
    ])
    def test_propensities_match_scalar(self, maker):
        """The vectorized propensity matrix equals per-reaction scalar
        evaluation on random states (mass-action and functional rates)."""
        network = maker()
        compiled = CompiledNetwork(network)
        rng = np.random.default_rng(0)
        X = _random_states(network, rng, 64)
        A = compiled.propensities(X)
        for i in range(X.shape[0]):
            counts = {s: int(X[i, compiled.species_index[s]])
                      for s in network.species}
            expected = [r.propensity(counts) for r in network.reactions]
            assert np.allclose(A[i], expected), (i, A[i], expected)

    def test_stoichiometry_matches_apply(self):
        network = neurospora_network(omega=20)
        compiled = CompiledNetwork(network)
        base = {s: 50 for s in network.species}
        for j, reaction in enumerate(network.reactions):
            counts = dict(base)
            reaction.apply(counts)
            delta = np.array([counts[s] - base[s] for s in network.species])
            assert (compiled.stoich[j] == delta).all()

    def test_initial_and_observables(self):
        network = toggle_switch_network()
        compiled = CompiledNetwork(network)
        assert {s: int(v) for s, v in
                zip(network.species, compiled.initial)} \
            == {s: network.initial.get(s, 0) for s in network.species}
        names = [network.species[c] for c in compiled.observable_columns]
        assert tuple(names) == network.observables


class TestDeterministicInvariants:
    """A single irreversible reaction makes every SSA invariant exact."""

    def _network(self, a0=17):
        return ReactionNetwork(
            "drain", {"A": a0, "B": 0},
            [Reaction.make("decay", {"A": 1}, {"B": 1}, 1.0)],
            observables=["A", "B"])

    def test_fires_exactly_a0_times(self):
        a0 = 17
        sim = BatchFlatSimulator(self._network(a0), 32, seed=1)
        sim.advance(1e9)
        assert (sim.steps == a0).all()
        assert (sim.counts[:, 0] == 0).all()
        assert (sim.counts[:, 1] == a0).all()
        assert sim.exhausted.all()

    def test_exhausted_clamp_to_target(self):
        sim = BatchFlatSimulator(self._network(3), 8, seed=2)
        sim.advance(1e9)
        t_after = sim.times.copy()
        sim.advance(5.0)
        assert np.allclose(sim.times, t_after + 5.0)
        assert (sim.steps == 3).all()

    def test_scalar_engine_same_invariants(self):
        scalar = FlatSimulator(self._network(17), seed=3)
        scalar.advance(1e9)
        assert scalar.steps == 17
        assert scalar.counts["A"] == 0 and scalar.counts["B"] == 17

    def test_exponential_decay_mean(self):
        """Unit-rate mass-action decay: each molecule lives Exp(1), so
        E[A(t)] = A0 * exp(-t)."""
        a0, t = 20, 1.0
        sim = BatchFlatSimulator(self._network(a0), 4096, seed=4)
        sim.advance(t)
        expected = a0 * np.exp(-t)
        assert sim.counts[:, 0].mean() == pytest.approx(expected, rel=0.05)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("maker", [
        lambda: neurospora_network(omega=10),
        toggle_switch_network,
    ])
    def test_terminal_distribution_ks(self, maker):
        """Kolmogorov-Smirnov: terminal observable distributions of the
        batch engine and the scalar FlatSimulator are indistinguishable
        (fixed seeds; p-value threshold far below any plausible break)."""
        network = maker()
        n, t_end = 200, 2.0
        batch = BatchFlatSimulator(network, n, seed=7)
        batch.advance(t_end)
        batch_terminal = batch.observe_all()
        scalar_terminal = []
        for s in range(n):
            sim = FlatSimulator(network, seed=10_000 + s)
            sim.advance(t_end)
            scalar_terminal.append(sim.observe())
        scalar_terminal = np.array(scalar_terminal)
        for k in range(batch_terminal.shape[1]):
            stat = ks_2samp(batch_terminal[:, k], scalar_terminal[:, k])
            assert stat.pvalue > 0.01, (network.observables[k], stat)

    def test_mean_step_counts_agree(self):
        network = neurospora_network(omega=10)
        n, t_end = 200, 2.0
        batch = BatchFlatSimulator(network, n, seed=8)
        batch.advance(t_end)
        scalar_steps = []
        for s in range(n):
            sim = FlatSimulator(network, seed=20_000 + s)
            sim.advance(t_end)
            scalar_steps.append(sim.steps)
        assert batch.steps.mean() == pytest.approx(
            np.mean(scalar_steps), rel=0.10)

    def test_run_all_matches_scalar_grid(self):
        """run_all produces the same sampling grid and plain-float samples
        as FlatSimulator.run."""
        network = neurospora_network(omega=10)
        results = batch_simulator(network, 3, seed=9).run_all(3.0, 0.5)
        reference = FlatSimulator(network, seed=9).run(3.0, 0.5)
        assert len(results) == 3
        for result in results:
            assert result.times == reference.times
            assert all(isinstance(v, float)
                       for sample in result.samples for v in sample)


class TestBatchApi:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchFlatSimulator(neurospora_network(omega=10), 0)

    def test_per_trajectory_targets(self):
        network = neurospora_network(omega=10)
        sim = BatchFlatSimulator(network, 4, seed=11)
        targets = np.array([0.5, 1.0, 1.5, 2.0])
        sim.advance_to(targets)
        assert np.allclose(sim.times, targets)

    def test_state_view_protocol(self):
        network = neurospora_network(omega=10)
        sim = BatchFlatSimulator(network, 2, seed=12)
        view = sim.state_view(0)
        species = network.species[0]
        assert view[species] == view.count(species) \
            == int(sim.counts[0, sim.compiled.species_index[species]])

    def test_reproducible(self):
        network = toggle_switch_network()

        def final(seed):
            sim = BatchFlatSimulator(network, 16, seed=seed)
            sim.advance(2.0)
            return sim.counts.copy()

        assert (final(21) == final(21)).all()
        assert not (final(21) == final(22)).all()
