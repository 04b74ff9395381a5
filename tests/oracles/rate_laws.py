"""The batched rate laws, frozen as the lockstep oracle's propensities.

:func:`vectorize` is ``repro.cwc.batch._vectorize_rate_law`` as it stood
when the propensity plan still called one closure per functional law:
each law of :mod:`repro.cwc.rates` as one NumPy expression over the
batched counts matrix ``X`` (one row per trajectory), any other callable
row by row through the ``StateView`` protocol.  The engine may spell
these laws out any way it likes; its bits are checked against this copy,
which it does not share.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cwc.rates import (
    Constant,
    HillActivation,
    HillRepression,
    Linear,
    MichaelisMenten,
    Product,
)


class RowView:
    """One row of the counts matrix through the ``StateView`` protocol."""

    __slots__ = ("_row", "_index")

    def __init__(self, row: np.ndarray, index: dict[str, int]):
        self._row = row
        self._index = index

    def count(self, species: str) -> int:
        i = self._index.get(species)
        return int(self._row[i]) if i is not None else 0

    def __getitem__(self, species: str) -> int:
        return self.count(species)


def vectorize(rate, index: dict[str, int]
              ) -> Callable[[np.ndarray], np.ndarray]:
    """``X -> per-row rate values`` for one functional rate law."""
    if isinstance(rate, Constant):
        value = float(rate.value)
        return lambda X: np.full(X.shape[0], value)
    if isinstance(rate, Linear):
        col, k = index[rate.species], float(rate.k)
        return lambda X: k * X[:, col]
    if isinstance(rate, HillRepression):
        col = index[rate.species]
        omega, v, n = float(rate.omega), float(rate.v), float(rate.n)
        kn = float(rate.K) ** n

        def hill_repression(X: np.ndarray) -> np.ndarray:
            x = X[:, col] / omega
            return omega * v * kn / (kn + x ** n)
        return hill_repression
    if isinstance(rate, HillActivation):
        col = index[rate.species]
        omega, v, n = float(rate.omega), float(rate.v), float(rate.n)
        kn = float(rate.K) ** n

        def hill_activation(X: np.ndarray) -> np.ndarray:
            xn = (X[:, col] / omega) ** n
            return omega * v * xn / (kn + xn)
        return hill_activation
    if isinstance(rate, MichaelisMenten):
        col = index[rate.species]
        omega, v, K = float(rate.omega), float(rate.v), float(rate.K)

        def michaelis_menten(X: np.ndarray) -> np.ndarray:
            x = X[:, col] / omega
            return omega * v * x / (K + x)
        return michaelis_menten
    if isinstance(rate, Product):
        left = vectorize(rate.left, index) if callable(rate.left) else None
        right = (vectorize(rate.right, index) if callable(rate.right)
                 else None)
        lc = None if left is not None else float(rate.left)
        rc = None if right is not None else float(rate.right)

        def product(X: np.ndarray) -> np.ndarray:
            lv = left(X) if left is not None else lc
            rv = right(X) if right is not None else rc
            return lv * rv
        return product

    def generic(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            out[i] = rate(RowView(X[i], index))
        return out
    return generic
