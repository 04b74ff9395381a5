"""The tau-leap primitives, frozen as the leap loop's oracle.

:func:`leap_tau` and :func:`leap_fire` are ``repro.cwc.kernels``'
``numpy_leap_tau`` / ``numpy_leap_fire`` as they stood when the numpy
kernel still allocated every temporary of a leap: the
Cao-Gillespie-Petzold step bound from stoichiometry moments (species
outer, reactions inner, the mu bound before the sigma-squared bound) and
the batched scatter of Poisson firing counts with negative-population
rejection.  The engine's in-place primitives are checked against this
copy, which they do not share.
"""

from __future__ import annotations

import numpy as np


def leap_tau(a: np.ndarray, X: np.ndarray, stoich: np.ndarray,
             epsilon: float) -> np.ndarray:
    """Per-row tau candidate for the raw ``(n_reactions, m)``
    propensities ``a`` at the counts ``X``; ``inf`` where nothing
    constrains the leap."""
    m = a.shape[1]
    n_species = X.shape[1]
    tau = np.full(m, np.inf)
    for s in range(n_species):
        mu = np.zeros(m)
        sig2 = np.zeros(m)
        for j in range(a.shape[0]):
            v = stoich[j, s]
            if v != 0.0:
                mu += v * a[j]
                sig2 += (v * v) * a[j]
        bound = np.maximum(epsilon * X[:, s], 1.0)
        with np.errstate(divide="ignore"):
            t = bound / np.abs(mu)
        t[mu == 0.0] = np.inf
        np.minimum(tau, t, out=tau)
        with np.errstate(divide="ignore"):
            t = (bound * bound) / sig2
        t[sig2 <= 0.0] = np.inf
        np.minimum(tau, t, out=tau)
    return tau


def leap_fire(X: np.ndarray, stoich: np.ndarray,
              fires: np.ndarray) -> np.ndarray:
    """Commit the rows of ``X + fires @ stoich`` that stay non-negative,
    in place; returns the per-row acceptance mask."""
    delta = fires @ stoich
    new = X + delta
    ok = (new >= 0.0).all(axis=1)
    X[ok] = new[ok]
    return ok
