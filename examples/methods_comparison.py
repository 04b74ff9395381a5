"""Comparing stochastic simulation methods + structural analysis.

Run with::

    python examples/methods_comparison.py

Exercises the extension APIs around the core Gillespie engine:

1. structural analysis: exact conservation laws of the enzyme model;
2. three simulation methods on the same model -- direct, first-reaction
   (both exact) and tau-leaping (approximate, accelerated) -- compared on
   accuracy against the deterministic (ODE) limit;
3. checkpoint/restore: pause a trajectory and resume it bit-exactly;
4. persistence: the ensemble statistics written to CSV and read back.
"""

import pickle
import statistics
import tempfile
import time
from pathlib import Path

from repro.cwc import (
    FirstReactionSimulator,
    FlatSimulator,
    TauLeapSimulator,
    conservation_laws,
    integrate_ode,
)
from repro.models import mm_enzyme_network

T_END = 3.0
N_SEEDS = 12


def main() -> None:
    network = mm_enzyme_network(enzyme0=200, substrate0=2000,
                                k_bind=0.001, k_unbind=0.5, k_cat=0.3)

    # --- structural analysis --------------------------------------------
    laws = conservation_laws(network)
    print("conservation laws (exact, over the rationals):")
    for law in laws:
        terms = " + ".join(f"{w}*{s}" if w != 1 else s
                           for s, w in sorted(law.items()))
        print(f"  {terms} = const")

    # --- deterministic reference ------------------------------------------
    ode = integrate_ode(network, t_end=T_END, sample_every=T_END)
    p_ode = ode.column("P")[-1]
    print(f"\nODE product at t={T_END}: {p_ode:.1f}")

    # --- methods ----------------------------------------------------------
    # a large well-mixed system, where tau-leaping earns its keep
    from repro.cwc import Reaction, ReactionNetwork
    big = ReactionNetwork("iso-large", {"A": 50_000}, [
        Reaction.make("fwd", "A", "B", 2.0),
        Reaction.make("bwd", "B", "A", 1.0),
    ])
    b_ode = integrate_ode(big, t_end=T_END, sample_every=T_END).column("B")[-1]
    print(f"\nlarge isomerisation (50k molecules), ODE B at t={T_END}: "
          f"{b_ode:.0f}")
    methods = {
        "direct": lambda seed: FlatSimulator(big, seed=seed),
        "first-reaction": lambda seed: FirstReactionSimulator(
            big, seed=seed),
        "tau-leaping": lambda seed: TauLeapSimulator(big, seed=seed),
    }
    print(f"{'method':>15} {'mean B':>9} {'std':>7} {'events':>10} "
          f"{'wall (s)':>9}")
    for name, factory in methods.items():
        finals, events = [], 0
        started = time.perf_counter()
        for seed in range(4):
            simulator = factory(seed)
            simulator.advance(T_END)
            finals.append(simulator.counts["B"])
            events += simulator.steps
        elapsed = time.perf_counter() - started
        print(f"{name:>15} {statistics.mean(finals):>9.1f} "
              f"{statistics.stdev(finals):>7.1f} {events:>10d} "
              f"{elapsed:>9.3f}")
        leaper = factory(0)
        if isinstance(leaper, TauLeapSimulator):
            leaper.advance(T_END)
            print(f"{'':>15} ({leaper.leaps} leaps + "
                  f"{leaper.exact_steps} exact fallback steps)")

    # --- checkpointing: a checkpoint is the pickled simulator, RNG included --
    simulator = FlatSimulator(network, seed=99)
    simulator.advance(1.0)
    resumed = pickle.loads(pickle.dumps(simulator))
    simulator.advance(1.0)
    resumed.advance(1.0)
    assert resumed.observe() == simulator.observe()
    print("\ncheckpoint/restore: resumed trajectory is bit-identical")

    # --- persistence ---------------------------------------------------------
    from repro.pipeline import WorkflowConfig, run_workflow
    from repro.pipeline.storage import load_cut_statistics, save_cut_statistics
    result = run_workflow(network, WorkflowConfig(
        n_simulations=6, t_end=T_END, sample_every=0.5, quantum=1.0,
        n_sim_workers=3, window_size=7, seed=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = save_cut_statistics(result, Path(tmp) / "enzyme.csv",
                                   observable_names=network.observables)
        loaded = load_cut_statistics(path)
        print(f"persistence: {len(loaded)} cuts round-tripped through "
              f"{path.name} (final mean P = {loaded[-1].mean[3]:.1f})")


if __name__ == "__main__":
    main()
