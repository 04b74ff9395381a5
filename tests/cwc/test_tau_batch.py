"""Batched tau-leaping: leap primitives, hybrid switching, properties.

Three layers, mirroring ``test_kernels.py``:

* the leap *primitives* -- plain-Python oracle loops, the numpy
  kernel's in-place primitives and, when installed, the numba-jitted
  loops must agree bit for bit with the frozen numpy references of
  ``tests/oracles/leap.py`` on random states;
* the *engine* -- ``method="tau"|"hybrid"`` runs must preserve the
  invariants exact SSA guarantees structurally (no negative counts,
  conservation laws, quantum boundaries honoured, permanent
  exhaustion) even though leaping is only distribution-equivalent;
* the *plumbing* -- validation, per-row stream permutation invariance,
  pickling, step accounting.

Distribution-level equivalence with exact SSA lives in
``test_tau_equivalence.py`` (KS suite).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cwc import Reaction, ReactionNetwork
from repro.cwc.batch import (MAX_POPULATION, BatchFlatSimulator,
                             CompiledNetwork, PopulationOverflow)
from repro.cwc.kernels import (
    _leap_fire,
    _leap_tau,
    kernel_available,
    make_kernel,
)
from repro.models import (
    lotka_volterra_network,
    mm_enzyme_network,
    neurospora_network,
)
from tests.oracles.leap import leap_fire as oracle_leap_fire
from tests.oracles.leap import leap_tau as oracle_leap_tau

needs_numba = pytest.mark.skipif(not kernel_available("numba"),
                                 reason="numba is not installed")


def third_order_network() -> ReactionNetwork:
    """Trimerisation: exercises order-3 combinatorics and a +3 scatter."""
    return ReactionNetwork("trimer", {"a": 60, "b": 20}, [
        Reaction.make("form", "a + a + a", "t", 1e-4),
        Reaction.make("decay", "t", "a + a + a", 0.5),
        Reaction.make("swap", "a + b", "b + b", 0.01),
    ])


def networks() -> list[ReactionNetwork]:
    return [neurospora_network(omega=20), third_order_network(),
            lotka_volterra_network(omega=50)]


def random_states(compiled: CompiledNetwork, m: int = 64,
                  seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 40, size=(m, compiled.n_species)
                        ).astype(np.float64)


# ---------------------------------------------------------------------------
# leap primitives: plain loops vs numpy references (vs numba)
# ---------------------------------------------------------------------------

class TestLeapPrimitiveBitIdentity:
    def test_plain_tau_matches_numpy(self):
        for network in networks():
            compiled = CompiledNetwork(network)
            X = random_states(compiled)
            a = compiled.propensities_T(X)
            stoich = compiled.stoich.astype(np.float64)
            expected = oracle_leap_tau(a, X, stoich, 0.03)
            out = np.empty(X.shape[0])
            _leap_tau(np.ascontiguousarray(a), X, stoich, 0.03, out)
            assert out.tobytes() == expected.tobytes()

    def test_plain_fire_matches_numpy(self):
        for network in networks():
            compiled = CompiledNetwork(network)
            X = random_states(compiled, seed=7)
            rng = np.random.default_rng(3)
            fires = rng.integers(
                0, 6, size=(X.shape[0], compiled.n_reactions)
            ).astype(np.float64)
            stoich = compiled.stoich.astype(np.float64)
            X_np = X.copy()
            ok_np = oracle_leap_fire(X_np, stoich, fires)
            X_pl = X.copy()
            ok_pl = np.empty(X.shape[0], dtype=np.bool_)
            _leap_fire(X_pl, stoich, np.ascontiguousarray(fires), ok_pl)
            assert ok_pl.tobytes() == ok_np.tobytes()
            assert X_pl.tobytes() == X_np.tobytes()
            # some rows must actually have been rejected for the
            # comparison to mean anything
            assert not ok_np.all()
            assert ok_np.any()

    def test_bound_numpy_kernel_matches_the_oracle(self):
        """The numpy kernel's in-place primitives on the working set it
        is bound to: propensities with zeros and negative entries (so
        every step-bound mask matters), zero populations, a leap some
        rows reject and one every row commits."""
        rng = np.random.default_rng(12)
        for network in networks():
            compiled = CompiledNetwork(network)
            kernel = make_kernel("numpy", compiled)
            stoich = compiled.stoich.astype(np.float64)
            X = random_states(compiled, seed=4)
            X[:5] = 0.0
            own = kernel.propensities_cumsum_T(X).copy()  # binds X
            noisy = rng.normal(0.0, 20.0, own.shape)
            noisy[rng.random(own.shape) < 0.3] = 0.0
            for a in (own, noisy, np.abs(noisy)):
                expected = oracle_leap_tau(a, X, stoich, 0.03)
                got = kernel.leap_tau(a, X, stoich, 0.03)
                assert got.tobytes() == expected.tobytes()
            rejecting = rng.integers(
                0, 8, size=(X.shape[0], compiled.n_reactions)
            ).astype(np.float64)
            committed = []
            for fires in (rejecting, np.zeros_like(rejecting)):
                X_ref = X.copy()
                ok_ref = oracle_leap_fire(X_ref, stoich, fires)
                ok = kernel.leap_fire(X, stoich, fires)
                assert ok.tobytes() == ok_ref.tobytes()
                assert X.tobytes() == X_ref.tobytes()
                committed.append(int(ok.sum()))
            assert 0 < committed[0] < committed[1] == X.shape[0]

    def test_tau_inf_when_nothing_fires(self):
        compiled = CompiledNetwork(third_order_network())
        X = np.zeros((4, compiled.n_species))
        a = compiled.propensities_T(X)
        tau = oracle_leap_tau(a, X, compiled.stoich.astype(np.float64),
                             0.03)
        assert np.isinf(tau).all()

    def test_rejected_rows_left_untouched(self):
        """A rejected row must keep its exact pre-leap state (the
        engine redraws from it after halving tau)."""
        compiled = CompiledNetwork(third_order_network())
        X = random_states(compiled, seed=5)
        fires = np.full((X.shape[0], compiled.n_reactions), 50.0)
        before = X.copy()
        ok = oracle_leap_fire(X, compiled.stoich.astype(np.float64),
                             fires)
        rejected = ~ok
        assert rejected.any()
        assert X[rejected].tobytes() == before[rejected].tobytes()

    @needs_numba
    def test_numba_tau_matches_numpy(self):
        for network in networks():
            compiled = CompiledNetwork(network)
            kernel = make_kernel("numba", compiled)
            X = random_states(compiled)
            a = compiled.propensities_T(X)
            stoich = compiled.stoich.astype(np.float64)
            expected = oracle_leap_tau(a, X, stoich, 0.03)
            got = kernel.leap_tau(a, X, stoich, 0.03)
            assert got.tobytes() == expected.tobytes()

    @needs_numba
    def test_numba_fire_matches_numpy(self):
        for network in networks():
            compiled = CompiledNetwork(network)
            kernel = make_kernel("numba", compiled)
            X = random_states(compiled, seed=7)
            rng = np.random.default_rng(3)
            fires = rng.integers(
                0, 6, size=(X.shape[0], compiled.n_reactions)
            ).astype(np.float64)
            stoich = compiled.stoich.astype(np.float64)
            X_np = X.copy()
            ok_np = oracle_leap_fire(X_np, stoich, fires)
            X_nb = X.copy()
            ok_nb = kernel.leap_fire(X_nb, stoich, fires)
            assert ok_nb.tobytes() == ok_np.tobytes()
            assert X_nb.tobytes() == X_np.tobytes()


# ---------------------------------------------------------------------------
# engine invariants under leaping
# ---------------------------------------------------------------------------

class TestLeapEngineInvariants:
    @given(st.integers(0, 2 ** 16), st.sampled_from(["tau", "hybrid"]))
    @settings(max_examples=15, deadline=None)
    def test_counts_never_negative(self, seed, method):
        sim = BatchFlatSimulator(lotka_volterra_network(omega=100), 16,
                                 seed=seed, method=method)
        for _ in range(4):
            sim.advance(0.05)
            assert (sim.counts >= 0).all()

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_conservation_under_leaping(self, seed):
        """Leaps scatter whole reaction channels; the enzyme network's
        conservation laws (E + ES, S + ES + P) must hold exactly."""
        network = mm_enzyme_network(omega=100)
        sim = BatchFlatSimulator(network, 8, seed=seed, method="tau")
        index = sim.compiled.species_index
        e0 = sim.counts[:, index["E"]] + sim.counts[:, index["ES"]]
        s0 = (sim.counts[:, index["S"]] + sim.counts[:, index["ES"]]
              + sim.counts[:, index["P"]])
        sim.advance(2.0)
        assert (sim.counts[:, index["E"]]
                + sim.counts[:, index["ES"]] == e0).all()
        assert (sim.counts[:, index["S"]] + sim.counts[:, index["ES"]]
                + sim.counts[:, index["P"]] == s0).all()

    def test_quantum_boundaries_honoured(self):
        sim = BatchFlatSimulator(lotka_volterra_network(omega=200), 12,
                                 seed=4, method="tau")
        targets = sim.advance(0.25)
        assert np.allclose(targets, 0.25)
        assert (sim.times == 0.25).all()

    def test_rejection_halving_terminates(self):
        """Force every row to leap (tiny threshold) on a tiny-count
        decay network: near-exhaustion leaps keep rejecting, tau keeps
        halving, and the MAX_LEAP_ATTEMPTS fallback must still land
        every row on its target."""
        network = ReactionNetwork("decay", {"A": 5},
                                  [Reaction.make("d", "A", "", 50.0)])
        sim = BatchFlatSimulator(network, 32, seed=9, method="tau",
                                 ssa_threshold=1e-9, epsilon=0.5)
        sim.advance(10.0)
        assert (sim.times == 10.0).all()
        assert (sim.counts == 0).all()
        assert sim.exhausted.all()

    def test_exact_fallback_triggers_on_small_systems(self):
        """At tiny populations the CGP tau is worth less than
        ssa_threshold SSA steps, so the tau method must take exact
        steps (that is the hybrid safety net working)."""
        network = lotka_volterra_network(omega=5)
        sim = BatchFlatSimulator(network, 16, seed=2, method="tau")
        sim.advance(0.5)
        assert sim.exact_steps.sum() > 0

    def test_leaps_dominate_on_large_systems(self):
        sim = BatchFlatSimulator(lotka_volterra_network(omega=1000), 8,
                                 seed=2, method="tau")
        sim.advance(0.1)
        assert sim.leaps.sum() > 0
        # the whole point: firings vastly outnumber leap iterations
        assert sim.steps.sum() > 50 * sim.leaps.sum()

    def test_exhaustion_is_permanent(self):
        network = ReactionNetwork("decay", {"A": 3},
                                  [Reaction.make("d", "A", "", 1.0)])
        sim = BatchFlatSimulator(network, 6, seed=0, method="tau")
        sim.advance(100.0)
        assert sim.exhausted.all()
        assert (sim.counts == 0).all()
        sim.advance(1.0)  # exhausted rows jump straight to the target
        assert (sim.times == 101.0).all()

    def test_hybrid_gate_forces_exact_path_bitwise(self):
        """With an unreachable population gate no row ever leaps, and
        the hybrid loop's exact fallback must reproduce the exact
        method's trajectories bit for bit (same draws, same order)."""
        network = lotka_volterra_network(omega=50)
        exact = BatchFlatSimulator(network, 16, seed=7, method="exact")
        gated = BatchFlatSimulator(network, 16, seed=7, method="hybrid",
                                   pop_threshold=1e12)
        for _ in range(3):
            exact.advance(0.02)
            gated.advance(0.02)
        assert gated.leaps.sum() == 0
        assert gated.counts.tobytes() == exact.counts.tobytes()
        assert gated.times.tobytes() == exact.times.tobytes()
        assert gated.steps.tobytes() == exact.steps.tobytes()
        assert gated.exact_steps.sum() == gated.steps.sum()

    def test_hybrid_leaps_on_large_populations(self):
        sim = BatchFlatSimulator(lotka_volterra_network(omega=1000), 8,
                                 seed=3, method="hybrid")
        sim.advance(0.1)
        assert sim.leaps.sum() > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPopulationOverflow:
    """An escaped model ends in a named error, not in an undefined
    float -> int64 cast (``RuntimeWarning: invalid value encountered in
    cast``, then garbage counts)."""

    def test_escaped_prey_raises_at_the_committed_leap(self):
        # prey escapes once a row's predators die out (around t = 10.5
        # for this seed) and then grows ~e^10 per time unit
        sim = BatchFlatSimulator(lotka_volterra_network(omega=1000), 8,
                                 seed=1, method="tau")
        with pytest.raises(PopulationOverflow) as caught:
            sim.advance_to(np.full(8, 40.0))
        message = str(caught.value)
        assert "row " in message and "'prey'" in message and "t=" in message
        # nothing out of range was ever written back
        assert sim.counts.max() <= MAX_POPULATION
        assert isinstance(caught.value, ValueError)

    def test_write_back_is_guarded_in_the_exact_loop(self):
        birth = ReactionNetwork("birth", {"a": 2 ** 53 + 2}, [
            Reaction.make("birth", "", "a", 1.0)])
        sim = BatchFlatSimulator(birth, 2, seed=0)
        before = sim.counts.copy()
        with pytest.raises(PopulationOverflow, match="row 0.*'a'.*t=0.5"):
            sim.advance_to(np.full(2, 0.5))
        assert (sim.counts == before).all()

    def test_populations_at_the_limit_pass(self):
        idle = ReactionNetwork("idle", {"a": 2 ** 53, "b": 1}, [
            Reaction.make("flip", "b", "c", 1.0)])
        sim = BatchFlatSimulator(idle, 2, seed=0)
        sim.advance_to(np.full(2, 50.0))
        assert (sim.counts[:, sim.compiled.species_index["a"]]
                == 2 ** 53).all()


# ---------------------------------------------------------------------------
# plumbing: streams, validation, pickling
# ---------------------------------------------------------------------------

class TestLeapPlumbing:
    def test_row_permutation_invariance_with_streams(self):
        """Per-row rng streams make each row's draws its own: permuting
        the rows (streams and rates alike) must permute the results
        bitwise -- the property the fused sweep plane leans on."""
        network = lotka_volterra_network(omega=200)
        compiled = CompiledNetwork(network)
        n = 8
        seeds = [100 + i for i in range(n)]
        base = compiled.rates_for()
        rates = np.stack([base * (1.0 + 0.05 * i) for i in range(n)])
        perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])

        def run(order):
            sim = BatchFlatSimulator(
                compiled, n, method="tau",
                row_rates=rates[order],
                rng_streams=[(1, seeds[i]) for i in order])
            sim.advance(0.2)
            return sim

        a = run(np.arange(n))
        b = run(perm)
        assert a.counts[perm].tobytes() == b.counts.tobytes()
        assert a.steps[perm].tobytes() == b.steps.tobytes()
        assert a.leaps[perm].tobytes() == b.leaps.tobytes()

    def test_validation(self):
        network = lotka_volterra_network(omega=10)
        with pytest.raises(ValueError, match="unknown method"):
            BatchFlatSimulator(network, 2, method="leapfrog")
        with pytest.raises(ValueError, match="epsilon"):
            BatchFlatSimulator(network, 2, method="tau", epsilon=1.5)
        with pytest.raises(ValueError, match="ssa_threshold"):
            BatchFlatSimulator(network, 2, method="tau",
                               ssa_threshold=0.0)
        with pytest.raises(ValueError, match="pop_threshold"):
            BatchFlatSimulator(network, 2, method="hybrid",
                               pop_threshold=-1.0)

    def test_pickle_roundtrip_preserves_method(self):
        sim = BatchFlatSimulator(lotka_volterra_network(omega=100), 4,
                                 seed=1, method="hybrid", epsilon=0.05,
                                 ssa_threshold=5.0, pop_threshold=20.0)
        sim.advance(0.05)
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.method == "hybrid"
        assert clone.epsilon == 0.05
        assert clone.ssa_threshold == 5.0
        assert clone.pop_threshold == 20.0
        assert clone.counts.tobytes() == sim.counts.tobytes()
        # both must keep advancing identically (same generator state)
        sim.advance(0.05)
        clone.advance(0.05)
        assert clone.counts.tobytes() == sim.counts.tobytes()

    def test_exact_method_unchanged_by_default(self):
        """method defaults to "exact" and the historical trajectories
        are untouched (the bit-pinned path did not move)."""
        network = neurospora_network(omega=20)
        old = BatchFlatSimulator(network, 8, seed=42)
        new = BatchFlatSimulator(network, 8, seed=42, method="exact")
        old.advance(1.0)
        new.advance(1.0)
        assert old.counts.tobytes() == new.counts.tobytes()

    @needs_numba
    def test_numba_engine_runs_leap_methods(self):
        """The jitted leap primitives drive the same engine loop; the
        run must finish on target with the standard invariants (RNG
        stays in Python, but rejection cascades may diverge from numpy
        only if the primitives differ -- they are bit-identical, so
        the whole trajectory matches too)."""
        network = lotka_volterra_network(omega=300)
        a = BatchFlatSimulator(network, 8, seed=6, method="hybrid",
                               kernel="numpy")
        b = BatchFlatSimulator(network, 8, seed=6, method="hybrid",
                               kernel="numba")
        a.advance(0.1)
        b.advance(0.1)
        assert b.counts.tobytes() == a.counts.tobytes()
        assert b.steps.tobytes() == a.steps.tobytes()
        assert b.leaps.tobytes() == a.leaps.tobytes()
