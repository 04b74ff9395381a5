"""Kernel equivalence: every backend must reproduce the numpy oracle.

The numba backend's bit-identity pledge rests on two facts checked
here: (1) the plain-Python loops numba compiles perform the *same*
IEEE-754 operations in the same order as the vectorised oracle
(testable without numba -- Python floats are the same doubles), and
(2) with numba installed, the jitted versions drive whole trajectories
to byte-for-byte the same states for the same seeds.  The numba and
cupy legs skip cleanly where the packages are absent (this is the
default local environment; CI has a dedicated numba matrix leg).
"""

import pickle

import numpy as np
import pytest

from repro.cwc import kernels
from repro.cwc.batch import BatchFlatSimulator, CompiledNetwork
from repro.cwc.kernels import (
    KERNEL_NAMES,
    KernelUnavailable,
    MassActionPlan,
    NumbaKernel,
    NumpyKernel,
    _apply_stoich,
    _leap_fire,
    _leap_tau,
    _propensities_cumsum_T,
    _propensities_cumsum_T_rows,
    _select_events,
    kernel_available,
    make_kernel,
)
from repro.cwc.network import Reaction, ReactionNetwork
from repro.models import neurospora_network

needs_numba = pytest.mark.skipif(not kernel_available("numba"),
                                 reason="numba not installed")
needs_cupy = pytest.mark.skipif(not kernel_available("cupy"),
                                reason="cupy not installed or no device")


def third_order_network() -> ReactionNetwork:
    """A network exercising the falling-factorial path (need == 3)."""
    return ReactionNetwork(
        "trimer",
        initial={"a": 60, "b": 20, "t": 0},
        reactions=(
            Reaction("form", (("a", 3),), (("t", 1),), 1e-4),
            Reaction("decay", (("t", 1),), (("a", 3),), 0.5),
            Reaction("swap", (("a", 1), ("b", 1)), (("b", 2),), 0.01),
        ),
        observables=("a", "t"))


class PythonKernel(NumpyKernel):
    """The numba backend's algorithm without the JIT: runs the exact
    loops `njit` compiles, so equivalence here certifies the algorithm
    even where numba cannot be installed."""

    name = "python"

    def __init__(self, compiled):
        super().__init__(compiled)
        self.plan = MassActionPlan(compiled)
        self._functional = compiled._functional

    def propensities_cumsum_T(self, X, rates_rows=None):
        plan = self.plan
        m = X.shape[0]
        if self._functional:
            func_values = np.empty((len(self._functional), m))
            for k, (_j, law) in enumerate(self._functional):
                func_values[k] = law(X)
        else:
            func_values = np.empty((0, m))
        out = np.empty((plan.n_reactions, m))
        if rates_rows is None:
            _propensities_cumsum_T(plan.rates, plan.indptr, plan.cols,
                                   plan.needs, plan.facts, plan.func_index,
                                   func_values, X, out)
        else:
            rows = np.ascontiguousarray(rates_rows, dtype=np.float64)
            _propensities_cumsum_T_rows(rows, plan.indptr, plan.cols,
                                        plan.needs, plan.facts,
                                        plan.func_index, func_values, X, out)
        return out

    def select_events(self, cumulative, picks):
        chosen = np.empty(cumulative.shape[1], dtype=np.int64)
        _select_events(cumulative, picks, self.plan.n_reactions, chosen)
        return chosen

    def apply_stoich(self, X, stoich, chosen):
        _apply_stoich(X, stoich, chosen)


def unjitted(monkeypatch):
    """Build :class:`NumbaKernel` over the plain loops, as if ``njit``
    returned them unchanged."""
    monkeypatch.setattr(kernels, "_NUMBA_CACHE", (
        _propensities_cumsum_T, _select_events, _apply_stoich,
        _propensities_cumsum_T_rows, _leap_tau, _leap_fire))


def networks():
    return [neurospora_network(omega=20),  # Hill functional rates
            third_order_network()]         # pure mass action, order 3


def random_states(compiled, m=64, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 40, size=(m, compiled.n_species)).astype(
        np.float64)


class TestPlanAndLoops:
    def test_plan_csr_structure(self):
        compiled = CompiledNetwork(third_order_network())
        plan = MassActionPlan(compiled)
        assert plan.n_reactions == 3
        assert plan.indptr.tolist() == [0, 1, 2, 4]
        assert plan.needs.tolist() == [3, 1, 1, 1]
        assert plan.facts[0] == 6.0
        assert (plan.func_index == -1).all()  # no functional laws

    def test_plan_marks_functional_rows(self):
        compiled = CompiledNetwork(neurospora_network(omega=20))
        plan = MassActionPlan(compiled)
        functional_rows = {j for j, _ in compiled._functional}
        assert {int(j) for j in np.flatnonzero(plan.func_index >= 0)} \
            == functional_rows

    @pytest.mark.parametrize("network", networks(),
                             ids=["neurospora", "trimer"])
    def test_propensity_cumsum_bitwise_equals_oracle(self, network):
        compiled = CompiledNetwork(network)
        X = random_states(compiled)
        oracle = np.cumsum(compiled.propensities_T(X), axis=0)
        ours = PythonKernel(compiled).propensities_cumsum_T(X)
        # bitwise: same IEEE ops in the same order, not merely close
        assert ours.tobytes() == oracle.tobytes()

    def test_select_events_bitwise_equals_oracle(self):
        compiled = CompiledNetwork(third_order_network())
        X = random_states(compiled)
        cumulative = np.cumsum(compiled.propensities_T(X), axis=0)
        rng = np.random.default_rng(5)
        picks = rng.random(X.shape[0]) * cumulative[-1]
        oracle = (cumulative < picks[None, :]).sum(axis=0)
        np.clip(oracle, 0, compiled.n_reactions - 1, out=oracle)
        ours = PythonKernel(compiled).select_events(cumulative, picks)
        assert np.array_equal(ours, oracle)

    def test_apply_stoich_bitwise_equals_oracle(self):
        compiled = CompiledNetwork(third_order_network())
        X = random_states(compiled)
        stoich = compiled.stoich.astype(np.float64)
        chosen = np.array([0, 1, 2] * 21 + [0], dtype=np.int64)
        oracle = X.copy()
        oracle += stoich[chosen]
        ours = X.copy()
        PythonKernel(compiled).apply_stoich(ours, stoich, chosen)
        assert ours.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("network", networks(),
                             ids=["neurospora", "trimer"])
    @pytest.mark.parametrize("kernel_cls", [NumpyKernel, PythonKernel,
                                            NumbaKernel],
                             ids=["matmul", "count", "numba-unjitted"])
    def test_fire_equals_count_clamp_take(self, network, kernel_cls,
                                          monkeypatch):
        """One reaction per live lane, the one count and clamp picks --
        also on a pick equal to a running sum (``<`` is strict), a
        zero pick and a pick above the total; a dead lane (negative
        pick) keeps its counts."""
        unjitted(monkeypatch)
        compiled = CompiledNetwork(network)
        kernel = kernel_cls(compiled)
        X = random_states(compiled)
        cumulative = kernel.propensities_cumsum_T(X)
        rng = np.random.default_rng(6)
        picks = rng.random(X.shape[0]) * cumulative[-1]
        ties = np.arange(compiled.n_reactions)
        picks[ties] = cumulative[ties, ties]
        picks[6], picks[7] = 0.0, np.nextafter(cumulative[-1, 7], np.inf)
        dead = np.array([8, 9, 20], dtype=np.intp)
        picks[dead] = -cumulative[-1, dead]
        chosen = np.minimum((cumulative < picks).sum(axis=0),
                            compiled.n_reactions - 1)
        oracle = X + compiled.stoich[chosen]
        oracle[dead] = X[dead]
        kernel.fire(X, cumulative, picks, dead)
        assert X.tobytes() == oracle.tobytes()


def run_batch(network, kernel_obj=None, kernel_name="numpy", n=16,
              seed=42, t_end=8.0):
    sim = BatchFlatSimulator(network, n, seed=seed, kernel="numpy")
    if kernel_obj is not None:
        sim._kernel = kernel_obj(sim.compiled)
        sim.kernel_name = kernel_obj.name
    elif kernel_name != "numpy":
        sim = BatchFlatSimulator(network, n, seed=seed, kernel=kernel_name)
    for target in (2.5, 5.0, t_end):
        sim.advance_to(np.full(n, target))
    return sim


class TestTrajectoryBitIdentity:
    @pytest.mark.parametrize("network", networks(),
                             ids=["neurospora", "trimer"])
    def test_python_loops_reproduce_numpy_trajectories(self, network):
        """Whole trajectories through the kernel surface are bit-equal
        to the inline numpy path: same counts, same clocks, same step
        counters, for the same seeds."""
        ref = run_batch(network)
        alt = run_batch(network, kernel_obj=PythonKernel)
        assert alt.counts.tobytes() == ref.counts.tobytes()
        assert alt.times.tobytes() == ref.times.tobytes()
        assert np.array_equal(alt.steps, ref.steps)
        assert np.array_equal(alt.exhausted, ref.exhausted)

    def test_numba_kernel_class_without_the_jit(self, monkeypatch):
        """:class:`NumbaKernel` itself -- its count-and-clamp ``fire``
        and the zero row a dead lane picks -- over the plain loops
        ``njit`` would compile."""
        unjitted(monkeypatch)
        network = neurospora_network(omega=20)
        ref = run_batch(network, t_end=6.0)
        alt = run_batch(network, kernel_obj=NumbaKernel, t_end=6.0)
        assert alt.counts.tobytes() == ref.counts.tobytes()
        assert alt.times.tobytes() == ref.times.tobytes()
        assert np.array_equal(alt.steps, ref.steps)

    @needs_numba
    @pytest.mark.parametrize("network", networks(),
                             ids=["neurospora", "trimer"])
    def test_numba_reproduces_numpy_trajectories(self, network):
        ref = run_batch(network)
        jit = run_batch(network, kernel_name="numba")
        assert jit.counts.tobytes() == ref.counts.tobytes()
        assert jit.times.tobytes() == ref.times.tobytes()
        assert np.array_equal(jit.steps, ref.steps)

    @needs_numba
    def test_numba_workflow_matches_numpy_workflow(self):
        from repro.pipeline import WorkflowConfig, run_workflow
        network = neurospora_network(omega=20)

        def run(kernel):
            return run_workflow(network, WorkflowConfig(
                n_simulations=16, t_end=5.0, sample_every=0.5,
                quantum=2.5, n_sim_workers=2, window_size=5, seed=0,
                engine="batch", batch_size=8, engine_kernel=kernel,
                keep_cuts=True))
        ref, jit = run("numpy"), run("numba")
        for a, b in zip(ref.cuts, jit.cuts):
            assert a == b

    @needs_cupy
    def test_cupy_smoke(self):
        """The GPU shim is statistically equivalent, not bit-pinned:
        just prove it runs and conserves the obvious invariants."""
        sim = run_batch(third_order_network(), kernel_name="cupy")
        assert (sim.times >= 8.0 - 1e-9).all()
        assert (sim.counts >= 0).all()


class TestDegradation:
    def test_unknown_kernel_rejected(self):
        compiled = CompiledNetwork(third_order_network())
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("fortran", compiled)

    def test_missing_backend_raises_kernel_unavailable(self):
        if kernel_available("numba"):
            pytest.skip("numba installed: unavailability path not "
                        "reachable here")
        compiled = CompiledNetwork(third_order_network())
        with pytest.raises(KernelUnavailable, match="numba"):
            make_kernel("numba", compiled)

    def test_simulator_fails_fast_on_missing_kernel(self):
        if kernel_available("numba"):
            pytest.skip("numba installed")
        with pytest.raises(KernelUnavailable):
            BatchFlatSimulator(third_order_network(), 4, seed=0,
                               kernel="numba")

    def test_available_kernels_probe(self):
        assert KERNEL_NAMES == ("numpy", "numba", "cupy")
        assert kernel_available("numpy") is True

    def test_simulator_pickles_without_kernel_object(self):
        sim = BatchFlatSimulator(third_order_network(), 4, seed=0)
        sim.advance_to(np.full(4, 1.0))
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.kernel_name == "numpy"
        assert clone._kernel is None
        ref = sim.advance_to(np.full(4, 2.0)).copy()
        assert np.array_equal(clone.advance_to(np.full(4, 2.0)), ref)
        assert clone.counts.tobytes() == sim.counts.tobytes()
