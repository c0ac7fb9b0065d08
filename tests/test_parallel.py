"""Range partitioning and the worker-count clamp of the state-sum pool."""

import multiprocessing

import vknot.parallel as parallel
from vknot.parallel import map_state_ranges, split_ranges


def _span(payload, start, stop):
    return (payload, start, stop)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps in process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(j) for j in jobs]


def test_split_ranges_cover_total():
    for total, parts in ((10, 3), (2, 8), (0, 4), (16, 1)):
        ranges = split_ranges(total, parts)
        assert [b for _, b in ranges][-1:] == ([total] if total else [])
        assert all(a < b for a, b in ranges)
        assert len(ranges) <= max(parts, 1)


def test_worker_count_clamped_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    parts = map_state_ranges(_span, "p", 100, 10_000)
    assert _RecordingPool.sizes == [3]
    assert [(a, b) for _, a, b in parts] == split_ranges(100, 3)


def test_single_worker_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    for requested in (0, 1, 64):
        assert map_state_ranges(_span, "p", 100, requested) == [("p", 0, 100)]
    assert _RecordingPool.sizes == []


def test_empty_range_needs_no_pool(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    assert map_state_ranges(_span, "p", 0, 4) == []
    assert _RecordingPool.sizes == []
