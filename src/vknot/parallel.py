"""Deterministic range-partitioned evaluation of state sums.

State enumerations split into index ranges whose partial results merge
by a commutative, associative operation, so the worker count can never
change an answer, only the wall time.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

#: Fewest states a sum must have to be split over processes.  `certify`,
#: serial against two workers on a 2-vCPU machine (best of 3, seconds):
#:
#:   crossings  input                       serial      two workers
#:   14         p_family(4)                 0.023       0.046
#:   14         6 random codes, genus 6-7   0.18-0.36   0.19-0.40 (4 slower)
#:   15         6 random codes, genus 5-7   0.26-0.51   0.20-0.43 (all faster)
#:   16         p_family(5)                 0.050       0.071
#:   16         6 random codes, genus 7-8   0.70-1.25   0.55-1.17 (all faster)
#:   18         p_family(6)                 0.16        0.21
#:   20         p_family(7)                 0.48        0.27
#:
#: The block memo of `analysis._bracket_chunk` replays most of the twist
#: family's states, and each worker has to build its own records, so there
#: two workers win only at 20 crossings; on random codes they win from 15.
#: A split of a family member costs at most 0.05 s here, while staying
#: serial on a random code costs up to 0.4 s, so the threshold follows the
#: random codes.
MIN_SPLIT_STATES = 1 << 15


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
