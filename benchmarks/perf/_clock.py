"""The one host-clock read of the benchmark.

Every timer in ``benchmarks/perf`` goes through :func:`now_ns`, so the
determinism lint (which treats ``benchmarks/`` as a helper tree) sees
exactly one accepted wall-clock read: host time is what this benchmark
measures, and no simulated outcome ever depends on it.
"""

import time


def now_ns() -> int:
    """Monotonic host time in nanoseconds."""
    return time.perf_counter_ns()  # detlint: ok(wall-clock)
