"""Statistical engines and gather."""

import pytest

from repro.analysis.engines import GatherNode, StatEngineNode, WindowStatistics
from repro.analysis.windows import Window
from repro.sim.trajectory import Cut


def window(n_cuts=4, n_traj=6, index=0):
    cuts = [Cut(grid_index=g, time=float(g),
                values=[(float(t * 10 + g), float(t)) for t in range(n_traj)])
            for g in range(n_cuts)]
    return Window(index, cuts)


class TestStatEngine:
    def test_basic_summaries(self):
        engine = StatEngineNode()
        stats = engine.svc(window())
        assert isinstance(stats, WindowStatistics)
        assert stats.window_index == 0
        assert len(stats.cuts) == 4
        # mean of t*10+g over t=0..5 at g=0 is 25
        assert stats.cuts[0].mean[0] == pytest.approx(25.0)
        assert stats.mean_series(0)[0] == stats.cuts[0].mean[0]
        assert [c.time for c in stats.cuts] == [0.0, 1.0, 2.0, 3.0]
        assert engine.windows_processed == 1

    def test_kmeans_enabled(self):
        engine = StatEngineNode(kmeans_k=2)
        stats = engine.svc(window())
        assert set(stats.clusters) == {0, 1}  # one result per observable
        assert stats.clusters[0].k == 2

    def test_kmeans_disabled_by_default(self):
        stats = StatEngineNode().svc(window())
        assert stats.clusters == {}

    def test_filtering(self):
        engine = StatEngineNode(filter_width=3)
        stats = engine.svc(window())
        assert 0 in stats.filtered_mean
        assert len(stats.filtered_mean[0]) == 4

    def test_kmeans_k_validated(self):
        with pytest.raises(ValueError):
            StatEngineNode(kmeans_k=0)

    def test_kmeans_deterministic(self):
        a = StatEngineNode(kmeans_k=2, kmeans_seed=5).svc(window())
        b = StatEngineNode(kmeans_k=2, kmeans_seed=5).svc(window())
        assert a.clusters[0].assignments == b.clusters[0].assignments


class TestGather:
    def test_counts_and_forwards(self):
        gather = GatherNode()
        stats = StatEngineNode().svc(window())
        assert gather.svc(stats) is stats
        assert gather.results_gathered == 1
        assert gather.latest is stats

    def test_latest_tracks_most_recent(self):
        gather = GatherNode()
        first = StatEngineNode().svc(window(index=0))
        second = StatEngineNode().svc(window(index=1))
        gather.svc(first)
        gather.svc(second)
        assert gather.latest.window_index == 1
        assert gather.results_gathered == 2
