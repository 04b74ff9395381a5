"""The bundled biological models."""

import pickle
import statistics

import pytest

from repro.cwc import CWCSimulator, FlatSimulator, integrate_ode
from repro.models import (
    NeurosporaParams,
    lotka_volterra_network,
    mm_enzyme_network,
    neurospora_cwc_model,
    neurospora_network,
    toggle_switch_network,
)


class TestNeurosporaNetwork:
    def test_structure(self):
        net = neurospora_network(omega=100)
        assert net.observables == ("M", "FC", "FN")
        assert len(net.reactions) == 6
        assert net.initial["M"] == 100

    def test_omega_scales_counts(self):
        small = neurospora_network(omega=10)
        large = neurospora_network(omega=1000)
        assert large.initial["M"] == 100 * small.initial["M"]

    def test_ssa_oscillates(self):
        net = neurospora_network(omega=50)
        result = FlatSimulator(net, seed=2).run(70.0, 0.5)
        m = result.column("M")
        # circadian oscillation: M swings over a wide range
        assert max(m) > 3 * (min(m) + 1)

    def test_network_is_picklable(self):
        net = neurospora_network(omega=50)
        clone = pickle.loads(pickle.dumps(net))
        a = FlatSimulator(net, seed=1).run(3.0, 1.0)
        b = FlatSimulator(clone, seed=1).run(3.0, 1.0)
        assert a.samples == b.samples

    def test_custom_params(self):
        params = NeurosporaParams(vs=2.0)
        net = neurospora_network(omega=10, params=params)
        assert net.name == "neurospora"


class TestNeurosporaCWC:
    def test_structure(self):
        model = neurospora_cwc_model(omega=20)
        assert not model.is_flat()
        assert model.observable_names == ("M", "FC", "FN")
        # cell compartment containing a nucleus compartment
        cell = model.term.compartments[0]
        assert cell.label == "cell"
        assert cell.content.compartments[0].label == "nucleus"

    def test_initial_observables(self):
        model = neurospora_cwc_model(omega=20)
        m, fc, fn = model.measure(model.term)
        assert (m, fc, fn) == (20, 10, 20)

    def test_dynamics_agree_with_flat_model(self):
        """The compartmentalised rendering must reproduce the flat
        model's mean behaviour (fast export makes them equivalent)."""
        omega, t_end = 15, 12.0
        flat_net = neurospora_network(omega=omega)
        flat = [FlatSimulator(flat_net, seed=s).run(t_end, t_end)
                .samples[-1][2] for s in range(12)]
        cwc_model = neurospora_cwc_model(omega=omega)
        cwc = [CWCSimulator(cwc_model, seed=100 + s).run(t_end, t_end)
               .samples[-1][2] for s in range(12)]
        mean_flat, mean_cwc = statistics.mean(flat), statistics.mean(cwc)
        spread = max(statistics.stdev(flat), statistics.stdev(cwc), 1.0)
        assert abs(mean_flat - mean_cwc) < 2.5 * spread

    def test_structure_is_stable(self):
        """Compartments are never created or destroyed by the dynamics."""
        model = neurospora_cwc_model(omega=10)
        simulator = CWCSimulator(model, seed=4)
        simulator.advance(5.0)
        assert len(simulator.term.compartments) == 1
        assert len(simulator.term.compartments[0].content.compartments) == 1


class TestLotkaVolterra:
    def test_structure(self, lotka_small):
        assert lotka_small.observables == ("prey", "pred")
        assert len(lotka_small.reactions) == 3

    def test_oscillation_or_extinction(self, lotka_small):
        simulator = FlatSimulator(lotka_small, seed=3)
        result = simulator.run(20.0, 0.5)
        prey = result.column("prey")
        # either extinct (absorbed) or still oscillating
        assert prey[-1] == 0 or max(prey) > 1.5 * min(p for p in prey if p > 0)

    def test_trajectory_cost_is_heavily_unbalanced(self):
        """The property the paper's load balancing addresses.

        A trajectory whose predators die out grows its prey without
        bound (tens of millions of events by ``t = 30``), so each seed
        advances in 1.0-time chunks and stops once it passes
        ``STEP_CAP``: a capped count is a lower bound on the real one,
        so ``max > 2 * min`` still holds of the uncapped costs as long
        as the cheapest seed ran to the end uncapped."""
        STEP_CAP = 200_000
        net = lotka_volterra_network(prey0=50, predator0=50,
                                     birth=1.0, predation=0.02, death=1.0)
        steps, reached = [], []
        for seed in range(15):
            simulator = FlatSimulator(net, seed=seed)
            while simulator.time < 30.0 - 1e-9 \
                    and simulator.steps <= STEP_CAP:
                simulator.advance(min(1.0, 30.0 - simulator.time))
            steps.append(simulator.steps)
            reached.append(simulator.time)
        cheapest = steps.index(min(steps))
        assert reached[cheapest] == pytest.approx(30.0)
        assert steps[cheapest] <= STEP_CAP
        assert max(steps) > 2 * min(steps)


class TestToggleSwitch:
    def test_structure(self, toggle_small):
        assert toggle_small.observables == ("U", "V")

    def test_bistability(self):
        """Trajectories commit to one of two expression states."""
        net = toggle_switch_network(omega=30)
        finals = []
        for seed in range(14):
            result = FlatSimulator(net, seed=seed).run(40.0, 40.0)
            u, v = result.samples[-1]
            finals.append(u > v)
        assert any(finals) and not all(finals)  # both attractors visited

    def test_states_are_asymmetric(self):
        net = toggle_switch_network(omega=30)
        result = FlatSimulator(net, seed=0).run(40.0, 40.0)
        u, v = result.samples[-1]
        assert abs(u - v) > 10  # committed, not mixed


class TestEnzyme:
    def test_conservation_laws(self, enzyme_small):
        simulator = FlatSimulator(enzyme_small, seed=1)
        result = simulator.run(50.0, 5.0)
        for e, s, es, p in result.samples:
            assert e + es == 10        # enzyme conserved
            assert s + es + p == 50    # substrate mass conserved

    def test_goes_to_completion(self, enzyme_small):
        # the last few substrate molecules react slowly (propensity ~ E*S)
        result = FlatSimulator(enzyme_small, seed=2).run(2000.0, 2000.0)
        e, s, es, p = result.samples[-1]
        assert p == 50 and s == 0 and es == 0

    def test_matches_ode_mean(self):
        net = mm_enzyme_network(enzyme0=50, substrate0=500)
        ode = integrate_ode(net, t_end=5.0, sample_every=5.0)
        p_ode = ode.column("P")[-1]
        p_ssa = statistics.mean(
            FlatSimulator(net, seed=s).run(5.0, 5.0).samples[-1][3]
            for s in range(10))
        assert p_ssa == pytest.approx(p_ode, rel=0.15)
