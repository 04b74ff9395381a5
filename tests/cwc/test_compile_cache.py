"""The process-level compiled-network cache."""

import pickle

import pytest

from repro.cwc.batch import (CompiledNetwork, compile_network,
                             network_cache_stats)
from repro.cwc.network import Reaction, ReactionNetwork
from repro.models import neurospora_network
from tests.cwc.caches import clear_network_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_network_cache()
    yield
    clear_network_cache()


def opaque_network():
    """A network whose rate law is an arbitrary callable -- no content
    hash, so it must never be cached."""
    return ReactionNetwork(
        "opaque", {"a": 10},
        [Reaction.make("decay", {"a": 1}, {}, lambda X: X[:, 0] * 0.1)],
        observables=("a",))


class TestMemoization:
    def test_identical_content_shares_one_compilation(self):
        first = compile_network(neurospora_network(omega=20))
        second = compile_network(neurospora_network(omega=20))
        assert second is first
        stats = network_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_different_content_compiles_fresh(self):
        base = compile_network(neurospora_network(omega=20))
        other = compile_network(neurospora_network(omega=40))
        rates = compile_network(
            neurospora_network(omega=20).with_rates({"translation": 0.9}))
        assert other is not base and rates is not base
        assert network_cache_stats()["misses"] == 3

    def test_compiled_input_passes_through(self):
        compiled = CompiledNetwork(neurospora_network(omega=20))
        assert compile_network(compiled) is compiled
        assert network_cache_stats() == {
            "hits": 0, "misses": 0, "uncacheable": 0}

    def test_opaque_rate_laws_are_uncacheable(self):
        first = compile_network(opaque_network())
        second = compile_network(opaque_network())
        assert second is not first
        stats = network_cache_stats()
        assert stats["uncacheable"] == 2
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_clear_resets_everything(self):
        compile_network(neurospora_network(omega=20))
        clear_network_cache()
        assert network_cache_stats() == {
            "hits": 0, "misses": 0, "uncacheable": 0}
        compile_network(neurospora_network(omega=20))
        assert network_cache_stats()["misses"] == 1


def _picklable_opaque_law(X):
    return X[:, 0] * 0.1


class TestUnpickling:
    """A batch task crosses the pool pipe / the wire twice per quantum;
    its compiled network must resolve through the cache, not recompile
    (and rebuild the propensity plan) on every arrival."""

    def test_unpickles_share_one_compilation(self):
        blob = pickle.dumps(CompiledNetwork(neurospora_network(omega=20)))
        first, second = pickle.loads(blob), pickle.loads(blob)
        assert second is first
        assert first is compile_network(neurospora_network(omega=20))
        stats = network_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_unpickled_network_simulates_identically(self):
        from repro.cwc.batch import BatchFlatSimulator
        sim = BatchFlatSimulator(neurospora_network(omega=20), 4, seed=1)
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.compiled is not sim.compiled
        sim.advance_to(2.0)
        clone.advance_to(2.0)
        assert clone.counts.tobytes() == sim.counts.tobytes()
        assert clone.times.tobytes() == sim.times.tobytes()

    def test_opaque_networks_still_compile_fresh(self):
        network = ReactionNetwork(
            "opaque", {"a": 10},
            [Reaction.make("decay", {"a": 1}, {}, _picklable_opaque_law)],
            observables=("a",))
        blob = pickle.dumps(CompiledNetwork(network))
        first, second = pickle.loads(blob), pickle.loads(blob)
        assert second is not first
        stats = network_cache_stats()
        assert stats["uncacheable"] == 2 and stats["hits"] == 0


class TestFingerprint:
    def test_stable_across_instances(self):
        assert neurospora_network(omega=20).fingerprint() == \
            neurospora_network(omega=20).fingerprint()

    def test_sensitive_to_rates(self):
        base = neurospora_network(omega=20)
        assert base.fingerprint() != \
            base.with_rates({"translation": 0.9}).fingerprint()

    def test_opaque_callables_have_no_fingerprint(self):
        assert opaque_network().fingerprint() is None


class TestCapacity:
    def test_fifo_eviction_keeps_cache_bounded(self, monkeypatch):
        import repro.cwc.batch as batch_mod
        monkeypatch.setattr(batch_mod, "_COMPILE_CACHE_CAP", 2)
        nets = [neurospora_network(omega=w) for w in (10, 20, 30)]
        for net in nets:
            compile_network(net)
        assert len(batch_mod._compile_cache) == 2
        # oldest entry evicted: recompiling omega=10 misses again
        compile_network(neurospora_network(omega=10))
        assert network_cache_stats()["misses"] == 4
