"""Result persistence (the Fig. 2 permanent-storage box)."""

import pytest

from repro.pipeline import WorkflowConfig, run_workflow
from repro.pipeline.storage import load_cut_statistics, save_cut_statistics


@pytest.fixture(scope="module")
def result(request):
    from repro.models import toggle_switch_network
    config = WorkflowConfig(
        n_simulations=5, t_end=8.0, sample_every=1.0, quantum=4.0,
        n_sim_workers=2, window_size=3, kmeans_k=2, histogram_bins=4,
        filter_width=3, seed=1, keep_cuts=True)
    return run_workflow(toggle_switch_network(omega=15), config)


class TestCutStatisticsCsv:
    def test_roundtrip(self, result, tmp_path):
        path = save_cut_statistics(result, tmp_path / "cuts.csv",
                                   observable_names=("U", "V"))
        loaded = load_cut_statistics(path)
        original = result.cut_statistics()
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.grid_index == b.grid_index
            assert a.time == b.time
            assert a.mean == b.mean
            assert a.variance == pytest.approx(b.variance)
            assert a.median == b.median

    def test_header_names(self, result, tmp_path):
        path = save_cut_statistics(result, tmp_path / "cuts.csv",
                                   observable_names=("U", "V"))
        header = path.read_text().splitlines()[0]
        assert "U_mean" in header and "V_median" in header

    def test_name_count_validated(self, result, tmp_path):
        with pytest.raises(ValueError):
            save_cut_statistics(result, tmp_path / "x.csv",
                                observable_names=("only-one",))
