"""FastFlow's GPU core pattern: ``stencilReduce``.

The paper describes stencilReduce as the single GPU-specific core pattern,
"general enough to model most of the interesting GPGPU computations
including iterative stencil computations".  The pattern iterates:

1. **stencil**: every cell of a grid is recomputed from its neighbourhood
   (executed as one device map over the cells);
2. **reduce**: a global reduction over the new grid;
3. the loop continues until ``until(reduced, iteration)`` says stop.

Execution is functionally real; the device models the kernel timing (one
map kernel + one reduce kernel per iteration).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.gpu.simt import SimtDevice


def stencil_reduce(device: SimtDevice,
                   grid: Sequence[Any],
                   stencil: Callable[[Sequence[Any], int], Any],
                   reduce_fn: Callable[[Any, Any], Any],
                   until: Callable[[Any, int], bool],
                   max_iterations: int = 1000,
                   work_per_cell: float = 1.0,
                   stencil_all: Optional[
                       Callable[[Sequence[Any]], Sequence[Any]]] = None
                   ) -> tuple[list[Any], Any, int]:
    """Iterate stencil+reduce on ``device`` until convergence.

    ``stencil(grid, i)`` computes the new value of cell ``i`` from the
    current grid (the neighbourhood access pattern is up to the caller).
    ``stencil_all(grid)``, when given, computes the *whole* new grid in
    one vectorized call (e.g. a NumPy expression) instead -- same timing
    model, one Python call per map kernel instead of one per cell.
    Returns ``(final_grid, final_reduction, iterations)``.
    """
    if not grid:
        raise ValueError("stencil_reduce needs a non-empty grid")
    if stencil_all is None:
        def stencil_all(cells):
            return [stencil(cells, i) for i in range(len(cells))]
    current = list(grid)
    iteration = 0
    reduced: Any = None
    while iteration < max_iterations:
        iteration += 1
        current, _ = device.launch_map_batched(
            lambda cells: list(stencil_all(cells)), current,
            lambda cells, _result: [work_per_cell] * len(cells))
        # reduce kernel: tree reduction, log-depth; modeled as one kernel
        # whose per-thread work is ~log2(n)
        reduced = current[0]
        for value in current[1:]:
            reduced = reduce_fn(reduced, value)
        device.launch_modeled(
            [max(1.0, len(current)).bit_length() * work_per_cell]
            * len(current))
        if until(reduced, iteration):
            break
    return current, reduced, iteration
