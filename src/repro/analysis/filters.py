"""Smoothing filters for trajectory series (the ``filtered simulation
results`` of Fig. 2).

``moving_average`` is cumsum-based (NumPy): the prefix sums accumulate
left-to-right exactly like the historical Python loop, so outputs are
bit-identical to the scalar reference while running as one array op.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def moving_average_array(values, width: int) -> np.ndarray:
    """Centred moving average as a NumPy array; the window is truncated
    at the borders so the output has the same length as the input."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    series = np.asarray(values, dtype=float)
    n = len(series)
    if n == 0:
        return series.copy()
    half = width // 2
    prefix = np.concatenate(([0.0], np.cumsum(series)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    return (prefix[hi] - prefix[lo]) / (hi - lo)


def moving_average(values: Sequence[float], width: int) -> list[float]:
    """Centred moving average; see :func:`moving_average_array`."""
    return moving_average_array(values, width).tolist()

