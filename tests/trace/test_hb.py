"""Happens-before race detection: primitives, directed racy programs,
and the race-freedom of all eight stock applications."""

import numpy as np
import pytest

from repro.apps.base import run_app
from repro.core import SimConfig, TreadMarks
from repro.trace.hb import coalesce, detect_races, first_overlap

from tests.conftest import ALL_APPS, tiny_app


# ----------------------------------------------------------------------
# Interval primitives
# ----------------------------------------------------------------------
def test_coalesce_merges_overlaps_and_adjacency():
    assert coalesce([(5, 8), (0, 2), (2, 4), (7, 10)]) == [(0, 4), (5, 10)]
    assert coalesce([]) == []


def test_first_overlap():
    a = [(0, 4), (10, 20)]
    b = [(4, 10), (15, 16)]
    assert first_overlap(a, b) == (15, 16)
    assert first_overlap(a, [(4, 10)]) is None


# ----------------------------------------------------------------------
# Directed programs
# ----------------------------------------------------------------------
def _run(worker_fn, nprocs=4, heap=1 << 16, arrays=None):
    tmk = TreadMarks(SimConfig(nprocs=nprocs, trace=True), heap_bytes=heap)
    handles = {name: tmk.array(name, shape, dtype="float32")
               for name, shape in (arrays or {}).items()}
    res = tmk.run(lambda proc: worker_fn(proc, handles))
    return res


def _jacobi_like(with_middle_barrier):
    """Rows partitioned across procs; each proc reads its neighbours'
    boundary rows and rewrites its own.  Without the barrier between the
    read and write phases the boundary reads race with the owners'
    writes."""

    def worker(proc, handles):
        grid = handles["grid"]
        rows = 4
        lo = proc.id * rows
        grid.write_rows(proc, lo, np.ones((rows, 256), np.float32))
        proc.barrier()
        up = (lo - 1) % (proc.nprocs * rows)
        down = (lo + rows) % (proc.nprocs * rows)
        halo = grid.read_row(proc, up) + grid.read_row(proc, down)
        if with_middle_barrier:
            proc.barrier(barrier_id=1)
        grid.write_rows(proc, lo, np.tile(halo, (rows, 1)))
        proc.barrier(barrier_id=2)
        return float(halo.sum())

    return _run(worker, arrays={"grid": (16, 256)})


def test_barrier_separated_jacobi_is_race_free():
    res = _jacobi_like(with_middle_barrier=True)
    report = detect_races(res.trace.events, 4, layout=res.trace.layout)
    assert report.race_free, report.render()


def test_removing_the_middle_barrier_is_detected_as_racy():
    res = _jacobi_like(with_middle_barrier=False)
    report = detect_races(res.trace.events, 4, layout=res.trace.layout)
    assert not report.race_free
    r = report.races[0]
    assert r.proc_a != r.proc_b
    assert "write" in (r.op_a, r.op_b)
    assert r.allocation == "grid"
    assert r.nwords >= 1


def _counter(with_lock):
    def worker(proc, handles):
        counter = handles["counter"]
        for _ in range(2):
            if with_lock:
                proc.acquire(7)
            v = counter.read(proc, 0, 1)
            counter.write(proc, 0, v + np.float32(1.0))
            if with_lock:
                proc.release(7)
        proc.barrier()
        return float(counter.read(proc, 0, 1)[0])

    return _run(worker, nprocs=3, arrays={"counter": (16,)})


def test_lock_ordered_counter_is_race_free():
    res = _counter(with_lock=True)
    report = detect_races(res.trace.events, 3, layout=res.trace.layout)
    assert report.race_free, report.render()


def test_unlocked_counter_races():
    res = _counter(with_lock=False)
    report = detect_races(res.trace.events, 3, layout=res.trace.layout)
    assert not report.race_free
    assert any(r.op_a == "write" or r.op_b == "write" for r in report.races)


def test_report_render_mentions_location():
    res = _counter(with_lock=False)
    report = detect_races(res.trace.events, 3, layout=res.trace.layout)
    text = report.render()
    assert "race(s)" in text
    assert "'counter'" in text


def test_max_races_truncates():
    res = _jacobi_like(with_middle_barrier=False)
    report = detect_races(res.trace.events, 4, layout=res.trace.layout, max_races=1)
    assert len(report.races) == 1 and report.truncated


def test_disjoint_writers_are_race_free_despite_false_sharing():
    """Write-write false sharing (same page, disjoint words, no sync
    in between) is NOT a data race -- the detector must not flag it."""

    def worker(proc, handles):
        grid = handles["grid"]
        # All four procs write disjoint 8-word strips of the same page.
        grid.write(proc, proc.id * 8, np.full(8, proc.id + 1, np.float32))
        proc.barrier()
        return float(grid.read(proc, 0, 32).sum())

    res = _run(worker, arrays={"grid": (1024,)})
    report = detect_races(res.trace.events, 4, layout=res.trace.layout)
    assert report.race_free, report.render()


# ----------------------------------------------------------------------
# The stock applications (the paper's implicit correctness assumption)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_APPS)
def test_stock_app_is_race_free_at_4k(name):
    app, ds = tiny_app(name)
    res = run_app(app, ds, SimConfig(nprocs=8, unit_pages=1, trace=True))
    report = detect_races(res.trace.events, 8, layout=res.trace.layout)
    assert report.race_free, f"{name}: {report.render()}"
