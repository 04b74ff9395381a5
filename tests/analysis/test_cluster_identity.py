"""k-means on a real run: every window's clusters equal the oracle's.

The stat engine clusters one observable's column at each window's last
cut with ``kmeans_array``.  This runs a small tau-leaped Neurospora
workflow on the threads backend (integral populations, so the sorted
1-D loop takes its exact prefix-sum path) and checks each window's
``clusters[obs]``, byte for byte, against the list-based oracle
``kmeans`` on the same column of the retained cuts.
"""

import struct

from repro.models import neurospora_network
from repro.pipeline import WorkflowConfig, run_workflow
from tests.oracles.analysis import kmeans

K = 4


def as_bytes(result):
    flat = [x for centroid in result.centroids for x in centroid]
    return (struct.pack(f"<{len(flat)}d", *flat), result.assignments,
            struct.pack("<d", result.inertia), result.iterations)


def test_every_window_clusters_like_the_oracle():
    config = WorkflowConfig(
        n_simulations=256, t_end=12.0, sample_every=0.5, quantum=2.0,
        engine="batch", batch_size=128, method="tau", backend="threads",
        n_sim_workers=2, window_size=8, window_slide=1, kmeans_k=K,
        histogram_bins=16, filter_width=3, keep_cuts=True, seed=3)
    result = run_workflow(neurospora_network(omega=100), config)
    columns = {cut.grid_index: cut.data for cut in result.cuts}
    assert len(result.windows) == len(columns) - 8 + 1
    for window in result.windows:
        last = columns[window.cuts[-1].grid_index]
        assert set(window.clusters) == set(range(last.shape[1]))
        for obs, clustered in window.clusters.items():
            points = [[v] for v in last[:, obs].tolist()]
            assert as_bytes(clustered) == as_bytes(kmeans(points, K))
