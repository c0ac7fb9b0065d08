"""Range partitioning and the worker count of the state-sum pool."""

import multiprocessing

import vknot.parallel as parallel
from vknot.analysis import certify
from vknot.catalog import catalog_p_family
from vknot.parallel import MIN_SPLIT_STATES, map_state_ranges, split_ranges


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
    total = MIN_SPLIT_STATES + 5
    parts = map_state_ranges(_span, "p", total)
    assert _RecordingPool.sizes == [3]
    assert [(a, b) for _, a, b in parts] == split_ranges(total, 3)


def test_single_worker_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    for total in (100, MIN_SPLIT_STATES, 4 * MIN_SPLIT_STATES):
        assert map_state_ranges(_span, "p", total) == [("p", 0, total)]
    assert _RecordingPool.sizes == []


def test_empty_range_needs_no_pool(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "MIN_SPLIT_STATES", 0)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    assert map_state_ranges(_span, "p", 0) == []
    assert _RecordingPool.sizes == []


def test_small_sum_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    below = MIN_SPLIT_STATES - 1
    assert map_state_ranges(_span, "p", below) == [("p", 0, below)]
    assert _RecordingPool.sizes == []
    map_state_ranges(_span, "p", MIN_SPLIT_STATES)
    assert _RecordingPool.sizes == [4]


def _certify_json(n: int) -> str:
    return certify(catalog_p_family(n)).to_json_str()


def test_a_pool_worker_sums_in_process(monkeypatch):
    # a pool worker is daemonic and may not start a pool of its own, so a
    # sum big enough to split runs in the worker's own process
    serial = _certify_json(1)
    monkeypatch.setattr(parallel, "MIN_SPLIT_STATES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # forked, so the worker sees the patched module
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_certify_json, (1,)).get(timeout=120) == serial
