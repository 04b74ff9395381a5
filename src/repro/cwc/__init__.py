"""repro.cwc: the Calculus of Wrapped Compartments and its simulators.

CWC is a term-rewriting formalism for biological systems: a *term* is a
multiset of atomic elements and *compartments*; a compartment has a label,
a *wrap* (atoms sitting on its membrane) and nested content.  The evolution
of a system is driven by rewrite rules, localised to compartment types, and
simulated stochastically with the Gillespie algorithm (each run is a
*trajectory*).

Modules:

* :mod:`repro.cwc.multiset` -- counted multisets of atoms;
* :mod:`repro.cwc.term` -- terms and compartments (dynamic tree structures);
* :mod:`repro.cwc.rule` -- rewrite rules: patterns, right-hand sides, rates;
* :mod:`repro.cwc.matching` -- tree matching and match-multiplicity counting;
* :mod:`repro.cwc.model` -- a model bundles term, rules and observables;
* :mod:`repro.cwc.gillespie` -- the SSA engine over CWC terms;
* :mod:`repro.cwc.network` -- flat reaction networks (the plain-Gillespie
  baseline, also used as the fast path for compartment-free models);
* :mod:`repro.cwc.batch` -- the NumPy-vectorized batch engine (many flat
  trajectories advanced in lockstep);
* :mod:`repro.cwc.ode` -- deterministic ODE baseline;
* :mod:`repro.cwc.parser` -- a small textual syntax for CWC models.
"""

from repro.cwc.multiset import Multiset
from repro.cwc.term import Compartment, Term, TOP
from repro.cwc.rule import CompartmentPattern, CompartmentRHS, Pattern, RHS, Rule
from repro.cwc.model import Model, Observable
from repro.cwc.matching import match_multiplicity, enumerate_matches
from repro.cwc.gillespie import CWCSimulator, SSAResult
from repro.cwc.network import Reaction, ReactionNetwork, FlatSimulator
from repro.cwc.batch import (BatchFlatSimulator, CompiledNetwork,
                             PopulationOverflow, batch_simulator)
from repro.cwc.methods import FirstReactionSimulator, TauLeapSimulator
from repro.cwc.invariants import conservation_laws, verify_conservation
from repro.cwc.ode import integrate_ode
from repro.cwc.parser import parse_model, parse_term, ParseError
from repro.cwc.writer import write_model, write_term

__all__ = [
    "Multiset",
    "Compartment",
    "Term",
    "TOP",
    "CompartmentPattern",
    "CompartmentRHS",
    "Pattern",
    "RHS",
    "Rule",
    "Model",
    "Observable",
    "match_multiplicity",
    "enumerate_matches",
    "CWCSimulator",
    "SSAResult",
    "Reaction",
    "ReactionNetwork",
    "FlatSimulator",
    "BatchFlatSimulator",
    "CompiledNetwork",
    "PopulationOverflow",
    "batch_simulator",
    "FirstReactionSimulator",
    "TauLeapSimulator",
    "conservation_laws",
    "verify_conservation",
    "integrate_ode",
    "parse_model",
    "parse_term",
    "ParseError",
    "write_model",
    "write_term",
]
