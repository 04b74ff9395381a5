"""Alternative SSA methods: first-reaction and tau-leaping."""

import pickle
import statistics

import pytest

from repro.cwc import (
    FirstReactionSimulator,
    FlatSimulator,
    ReactionNetwork,
    Reaction,
    TauLeapSimulator,
    integrate_ode,
)
from repro.models import mm_enzyme_network


def isomerisation(n0=2000):
    """A <-> B with known equilibrium (B/A = 2) and no slow transient."""
    return ReactionNetwork("iso", {"A": n0}, [
        Reaction.make("fwd", "A", "B", 2.0),
        Reaction.make("bwd", "B", "A", 1.0),
    ])


class TestFirstReaction:
    def test_deterministic(self):
        net = isomerisation(100)
        a = FirstReactionSimulator(net, seed=3).run(2.0, 0.5)
        b = FirstReactionSimulator(net, seed=3).run(2.0, 0.5)
        assert a.samples == b.samples

    def test_conservation(self):
        net = isomerisation(100)
        result = FirstReactionSimulator(net, seed=1).run(5.0, 1.0)
        for a, b in result.samples:
            assert a + b == 100

    def test_agrees_with_direct_method_statistically(self):
        """Both exact methods must sample the same process: compare the
        equilibrium mean of B over seeds."""
        net = isomerisation(300)
        direct = [FlatSimulator(net, seed=s).run(5.0, 5.0).samples[-1][1]
                  for s in range(20)]
        first = [FirstReactionSimulator(net, seed=100 + s)
                 .run(5.0, 5.0).samples[-1][1] for s in range(20)]
        mean_direct = statistics.mean(direct)
        mean_first = statistics.mean(first)
        pooled_sd = (statistics.stdev(direct) + statistics.stdev(first)) / 2
        assert abs(mean_direct - mean_first) < 3 * pooled_sd / (20 ** 0.5) * 2

    def test_exhaustion(self):
        net = ReactionNetwork("decay", {"A": 3},
                              [Reaction.make("d", "A", "", 1.0)])
        simulator = FirstReactionSimulator(net, seed=0)
        simulator.advance(100.0)
        assert simulator.counts["A"] == 0
        assert not simulator.step()


class TestTauLeaping:
    def test_validation(self):
        with pytest.raises(ValueError):
            TauLeapSimulator(isomerisation(), epsilon=0.0)

    def test_leaps_actually_happen(self):
        simulator = TauLeapSimulator(isomerisation(5000), seed=1)
        simulator.advance(3.0)
        assert simulator.leaps > 5
        # each leap fires many reactions at once
        assert simulator.steps > 20 * simulator.leaps

    def test_conservation_exact_under_leaping(self):
        simulator = TauLeapSimulator(isomerisation(5000), seed=2)
        simulator.advance(3.0)
        assert simulator.counts["A"] + simulator.counts["B"] == 5000

    def test_counts_never_negative(self):
        net = ReactionNetwork("decay", {"A": 500},
                              [Reaction.make("d", "A", "", 5.0)])
        simulator = TauLeapSimulator(net, seed=3)
        simulator.advance(10.0)
        assert simulator.counts["A"] == 0  # fully decayed, never negative

    def test_tracks_ode_mean(self):
        """The leaped trajectory must track the deterministic limit for
        a large, well-mixed system."""
        net = isomerisation(9000)
        ode = integrate_ode(net, t_end=2.0, sample_every=2.0)
        b_ode = ode.column("B")[-1]
        simulator = TauLeapSimulator(net, seed=4)
        simulator.advance(2.0)
        assert simulator.counts["B"] == pytest.approx(b_ode, rel=0.05)

    def test_agrees_with_exact_ssa_statistically(self):
        net = isomerisation(2000)
        exact = [FlatSimulator(net, seed=s).run(2.0, 2.0).samples[-1][1]
                 for s in range(10)]
        leaped = []
        for s in range(10):
            simulator = TauLeapSimulator(net, seed=200 + s)
            simulator.advance(2.0)
            leaped.append(simulator.counts["B"])
        assert statistics.mean(leaped) == pytest.approx(
            statistics.mean(exact), rel=0.03)

    def test_hybrid_falls_back_on_small_systems(self):
        """Tiny populations must be handled by exact steps, silently."""
        net = isomerisation(8)
        simulator = TauLeapSimulator(net, seed=5)
        simulator.advance(5.0)
        assert simulator.exact_steps > 0
        assert simulator.counts["A"] + simulator.counts["B"] == 8

    def test_run_interface(self):
        result = TauLeapSimulator(mm_enzyme_network(), seed=0).run(5.0, 1.0)
        assert len(result.times) == 6
        assert result.observable_names == ("E", "S", "ES", "P")


class TestCheckpointing:
    """A checkpoint is the pickled simulator, RNG state included (what
    the runtime ships as ``net.Checkpoint``)."""

    def test_flat_snapshot_restore(self, neurospora_small):
        simulator = FlatSimulator(neurospora_small, seed=7)
        simulator.advance(2.0)
        checkpoint = pickle.dumps(simulator)
        simulator.advance(3.0)
        after_direct = simulator.observe()
        resumed = pickle.loads(checkpoint)
        resumed.advance(3.0)
        assert resumed.observe() == after_direct

    def test_flat_snapshot_isolated(self, neurospora_small):
        simulator = FlatSimulator(neurospora_small, seed=7)
        checkpoint = pickle.dumps(simulator)
        copy = pickle.loads(checkpoint)
        copy.advance(2.0)
        # advancing the copy must not move the original ...
        assert (simulator.time, simulator.steps) == (0.0, 0)
        simulator.advance(2.0)
        # ... and neither run moves the checkpoint
        restored = pickle.loads(checkpoint)
        assert (restored.time, restored.steps) == (0.0, 0)

    def test_cwc_snapshot_restore(self, neurospora_cwc_small):
        from repro.cwc import CWCSimulator
        simulator = CWCSimulator(neurospora_cwc_small, seed=7)
        simulator.advance(1.0)
        checkpoint = pickle.dumps(simulator)
        simulator.advance(1.0)
        after_direct = simulator.observe()
        resumed = pickle.loads(checkpoint)
        resumed.advance(1.0)
        assert resumed.observe() == after_direct
