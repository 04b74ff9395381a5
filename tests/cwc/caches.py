"""Reset of the process-wide compile caches of :mod:`repro.cwc.batch`,
so a test can count hits and misses from zero."""

from repro.cwc import batch


def clear_network_cache() -> None:
    """Drop every memoized compilation and zero the counters."""
    with batch._compile_lock:
        batch._compile_cache.clear()
        batch._loop_cache.clear()
        for key in batch._compile_stats:
            batch._compile_stats[key] = 0
