"""TSP's shared data structures: the binary heap and the free ring."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tsp import TSP, _distances
from repro.core import SimConfig, TreadMarks


def heap_session(keys):
    """Push ``keys`` into the shared heap and pop everything back, all
    inside a 1-processor simulated run."""
    app = TSP()
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=1 << 16)
    h = tmk.array("heap", (256,), "int32")
    meta = tmk.array("meta", (16,), "int32")
    popped = []

    def body(proc):
        meta.write(proc, 0, np.zeros(16, np.int32))
        for k in keys:
            app._heap_push(proc, h, meta, k)
        for _ in keys:
            popped.append(app._heap_pop(proc, h, meta))

    tmk.run(body)
    return popped


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
@settings(max_examples=20, deadline=None)
def test_shared_heap_pops_sorted(keys):
    assert heap_session(keys) == sorted(keys)


def test_heap_interleaved_push_pop():
    app = TSP()
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=1 << 16)
    h = tmk.array("heap", (256,), "int32")
    meta = tmk.array("meta", (16,), "int32")
    out = []

    def body(proc):
        meta.write(proc, 0, np.zeros(16, np.int32))
        app._heap_push(proc, h, meta, 5)
        app._heap_push(proc, h, meta, 1)
        out.append(app._heap_pop(proc, h, meta))  # 1
        app._heap_push(proc, h, meta, 3)
        app._heap_push(proc, h, meta, 0)
        out.append(app._heap_pop(proc, h, meta))  # 0
        out.append(app._heap_pop(proc, h, meta))  # 3
        out.append(app._heap_pop(proc, h, meta))  # 5

    tmk.run(body)
    assert out == [1, 0, 3, 5]


def test_dfs_finds_optimum_from_root():
    d = _distances(9)
    min_edge = np.where(d > 0, d, 1 << 20).min(axis=1).astype(np.int64)
    from repro.apps.tsp import held_karp

    best, path, visited = TSP._dfs(d, min_edge, [0], 0, 1 << 20)
    assert best == held_karp(d)
    assert visited > 0
    assert sorted(path) == list(range(9))


def test_dfs_respects_upper_bound():
    d = _distances(8)
    min_edge = np.where(d > 0, d, 1 << 20).min(axis=1).astype(np.int64)
    # An unbeatable bound prunes everything.
    best, _, visited_tight = TSP._dfs(d, min_edge, [0], 0, 1)
    assert best == 1
    _, _, visited_loose = TSP._dfs(d, min_edge, [0], 0, 1 << 20)
    assert visited_tight < visited_loose
