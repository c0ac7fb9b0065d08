"""Deterministic range-partitioned evaluation of state sums.

State enumerations split into index ranges whose partial results merge
by a commutative, associative operation, so the worker count can never
change an answer, only the wall time.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

#: Fewest states a sum must have to be split over processes.  `certify` on
#: the twist family, serial against two workers on a 2-vCPU machine: two
#: workers are slower at 14 crossings, even at 16, faster at 18 and about
#: twice as fast at 20.
MIN_SPLIT_STATES = 1 << 16


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, total) into at most `parts` contiguous non-empty ranges."""
    parts = max(1, min(parts, total)) if total else 1
    step, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + step + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def _call(args):
    fn, payload, start, stop = args
    return fn(payload, start, stop)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_state_ranges(fn: Callable, payload, total: int) -> Sequence:
    """Evaluate fn(payload, start, stop) over a partition of [0, total).

    The worker count is usable_cpus() for MIN_SPLIT_STATES states or more
    and 1 below, where starting processes costs more than the split saves;
    it is also 1 in a daemonic process (a pool worker), which may not start
    children.  With more than one worker the ranges run in a process pool,
    one range per worker, so per-range setup (tables, the surface bracket's
    curve memo) is paid once per worker.  Results come back in range order
    either way.
    """
    workers = usable_cpus() if total >= MIN_SPLIT_STATES else 1
    if workers > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            workers = 1
    jobs = [(fn, payload, a, b) for a, b in split_ranges(total, workers)]
    if len(jobs) <= 1:
        return [_call(j) for j in jobs]
    with multiprocessing.Pool(len(jobs)) as pool:
        return pool.map(_call, jobs)
