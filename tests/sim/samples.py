"""Flatten result blocks into per-sample tuples for equality checks."""


def block_samples(block) -> list[tuple[int, int, float, tuple]]:
    """``(task id, grid index, time, observable values)`` for every
    sample of ``block``, member by member in grid order."""
    times = block._times.tolist()
    return [(task_id, block.grid_start + k, time, tuple(row))
            for task_id, rows in zip(block.task_ids,
                                     block._values.tolist())
            for k, (time, row) in enumerate(zip(times, rows))]


def scalar_samples(block) -> list[tuple[int, float, tuple]]:
    """``(grid index, time, observable values)`` for every sample of a
    one-member block: a scalar task's quantum."""
    assert block.n_members == 1, block
    return [sample[1:] for sample in block_samples(block)]
