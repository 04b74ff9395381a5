"""Micro-benchmarks of the real (functional) building blocks.

These are honest wall-clock measurements of the Python implementation --
the numbers that calibrate the performance models (steps/s feed
``CostModel.step_cost`` scaling; per-cut analysis cost feeds the
``stat_cut_*`` terms).
"""

import numpy as np
import pytest

from repro.analysis.kmeans import kmeans, kmeans_array
from repro.analysis.stats import cut_statistics
from repro.cwc.gillespie import CWCSimulator
from repro.cwc.matching import match_multiplicity
from repro.cwc.network import FlatSimulator
from repro.cwc.parser import parse_term
from repro.cwc.rule import CompartmentPattern, Pattern
from repro.cwc.multiset import Multiset
from repro.distributed.message import decode_frame, encode_frame
from repro.ff.queues import Channel
from repro.models import neurospora_cwc_model, neurospora_network
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import QuantumResult
from repro.sim.trajectory import Cut


def test_flat_ssa_throughput(benchmark):
    network = neurospora_network(omega=100)

    def one_hour():
        simulator = FlatSimulator(network, seed=1)
        simulator.advance(1.0)
        return simulator.steps

    steps = benchmark(one_hour)
    assert steps > 100


def test_batch_ssa_throughput(benchmark):
    """The vectorized lockstep engine vs. the scalar flat engine, per-step
    throughput at batch size 1024 (>= 10x is the acceptance bar, measured
    against the scalar engine's best case -- itself already sped up by the
    Gibson-Bruck incremental propensity cache)."""
    import time

    from repro.cwc.batch import BatchFlatSimulator

    network = neurospora_network(omega=100)
    n = 1024

    def batch_hour():
        simulator = BatchFlatSimulator(network, n, seed=1)
        simulator.advance(1.0)
        return simulator.total_steps

    batch_steps = benchmark(batch_hour)
    assert batch_steps > 100 * n

    # scalar reference measured inline, best of three (favour the scalar
    # engine: the assertion must hold against its best case)
    scalar_rate = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        scalar = FlatSimulator(network, seed=1)
        scalar.advance(1.0)
        scalar_rate = max(scalar_rate,
                          scalar.steps / (time.perf_counter() - t0))

    batch_elapsed = benchmark.stats.stats.min
    batch_rate = batch_steps / batch_elapsed
    speedup = batch_rate / scalar_rate
    benchmark.extra_info["batch_steps_per_s"] = batch_rate
    benchmark.extra_info["scalar_steps_per_s"] = scalar_rate
    benchmark.extra_info["speedup"] = speedup
    print(f"\nbatch({n}): {batch_rate:,.0f} steps/s  "
          f"scalar: {scalar_rate:,.0f} steps/s  speedup: {speedup:.1f}x")
    assert speedup >= 10.0


def test_cwc_ssa_throughput(benchmark):
    model = neurospora_cwc_model(omega=100)

    def one_hour():
        simulator = CWCSimulator(model, seed=1)
        simulator.advance(1.0)
        return simulator.steps

    steps = benchmark(one_hour)
    assert steps > 100


def test_tree_matching(benchmark):
    term = parse_term("10*a 5*b (m m | 20*a):cell (m | 3*b):cell "
                      "(n | (m | a):cell):organ")
    pattern = Pattern(
        atoms=Multiset.from_string("a b"),
        compartments=(CompartmentPattern("cell", Multiset.from_string("m"),
                                         Multiset.from_string("a")),))
    result = benchmark(match_multiplicity, pattern, term)
    assert result > 0


def test_alignment_throughput(benchmark):
    n_traj, n_grid = 64, 32

    def align_everything():
        aligner = TrajectoryAligner(n_traj)
        sink = []
        aligner._outbox = type("O", (), {"send": lambda _s, c: sink.append(c)})()
        for task_id in range(n_traj):
            aligner.svc(QuantumResult(
                task_id=task_id,
                samples=[(g, float(g), (1.0, 2.0, 3.0))
                         for g in range(n_grid)],
                time=0.0, steps=0, done=True))
        # the columnar aligner ships consecutive cuts as CutBlocks
        return sum(len(block) for block in sink)

    cuts = benchmark(align_everything)
    assert cuts == n_grid


def test_cut_statistics_cost(benchmark):
    cut = Cut(grid_index=0, time=0.0,
              values=[(float(i), float(i * 2), float(i % 7))
                      for i in range(512)])
    stats = benchmark(cut_statistics, cut)
    assert stats.n_trajectories == 512


def test_kmeans_cost(benchmark):
    import random
    rng = random.Random(0)
    points = [[rng.gauss(0, 1)] for _ in range(256)] + \
             [[rng.gauss(10, 1)] for _ in range(256)]
    result = benchmark(kmeans, points, 2, 50, 0)
    assert result.k == 2


def test_kmeans_array_cost(benchmark):
    """The stat engine's call on ``neuro_tau_analysis``: one observable
    at the last cut of a 2048-trajectory window (integer populations
    around one mean, so Lloyd's loop runs tens of iterations), k = 4."""
    rng = np.random.default_rng(0)
    values = np.round(rng.normal(6000.0, 300.0, size=2048))
    result = benchmark(kmeans_array, values, 4, 50, 0)
    assert result.k == 4


def test_codec_roundtrip_cost(benchmark):
    payload = {"samples": [(g, float(g), (1.0, 2.0, 3.0))
                           for g in range(40)]}

    def roundtrip():
        return decode_frame(encode_frame(payload))[0]

    assert benchmark(roundtrip) == payload


def test_channel_throughput(benchmark):
    def push_pop_1000():
        channel = Channel(capacity=1024)
        channel.register_producer()
        for i in range(1000):
            channel.push(i)
        total = 0
        for _ in range(1000):
            total += channel.pop()
        return total

    assert benchmark(push_pop_1000) == 499500


def test_full_workflow_small(benchmark):
    """End-to-end wall-clock of the real threaded workflow."""
    network = neurospora_network(omega=30)
    config = WorkflowConfig(
        n_simulations=4, t_end=6.0, sample_every=0.5, quantum=2.0,
        n_sim_workers=2, window_size=6, seed=0)

    result = benchmark.pedantic(
        lambda: run_workflow(network, config), rounds=3, iterations=1)
    assert result.n_windows >= 2
