"""Interval garbage collection: reclaims metadata, never changes
results."""

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks
from repro.dsm.intervals import IntervalStore
from repro.dsm.vc import VectorClock
from repro.apps.base import run_app
from repro.sim.config import SimConfig as SC
from tests.conftest import checksum_close, tiny_app
from tests.dsm.test_intervals import close


def many_barrier_run(gc_threshold):
    tmk = TreadMarks(
        SimConfig(nprocs=4, gc_threshold=gc_threshold), heap_bytes=1 << 16
    )
    arr = tmk.array("a", (4096,), "uint32")

    def body(proc):
        total = 0.0
        for r in range(40):
            arr.write(proc, proc.id * 64, np.full(8, r, np.uint32))
            proc.barrier(2 * r)
            total += float(arr.read(proc, ((proc.id + 1) % 4) * 64, 8).sum())
            proc.barrier(2 * r + 1)
        return total

    res = tmk.run(body)
    return tmk, res


def test_gc_reclaims_intervals():
    tmk, _ = many_barrier_run(gc_threshold=32)
    assert tmk.store.collected > 0
    assert tmk.store.count() < tmk.store.collected + tmk.store.count()
    # Live set stays bounded near the threshold.
    assert tmk.store.count() <= 32 + 4 * 2  # one round of slack


def test_gc_disabled_keeps_everything():
    tmk, _ = many_barrier_run(gc_threshold=0)
    assert tmk.store.collected == 0
    assert tmk.store.count() == sum(
        tmk.store.closed_count(p) for p in range(4)
    )


def test_gc_does_not_change_results():
    _, with_gc = many_barrier_run(gc_threshold=16)
    _, without = many_barrier_run(gc_threshold=0)
    assert with_gc.checksum == without.checksum
    assert with_gc.time_us == without.time_us
    assert with_gc.comm.total_messages == without.comm.total_messages


@pytest.mark.parametrize("name", ["Jacobi", "Water", "TSP"])
def test_gc_transparent_on_applications(name):
    app, ds = tiny_app(name)
    ref = app.reference(ds)
    res = run_app(app, ds, SC(nprocs=8, gc_threshold=64))
    assert checksum_close(app, res.checksum, ref)


def test_collect_respects_references():
    store = IntervalStore(nprocs=2)
    for i in range(1, 6):
        close(store, 0, [i, 0], [0])
    known = VectorClock([5, 0])
    dropped = store.collect(known, referenced={(0, 3)})
    assert dropped == 4
    assert store.get(0, 3).index == 3  # referenced one survives
    with pytest.raises(KeyError, match="garbage collected"):
        store.get(0, 2)


def test_collect_ignores_unknown_intervals():
    store = IntervalStore(nprocs=2)
    close(store, 1, [0, 1], [0])
    dropped = store.collect(VectorClock([0, 0]), referenced=set())
    assert dropped == 0
    assert store.count() == 1


# ----------------------------------------------------------------------
# The span cache (IntervalStore.diff_scan_cache) under garbage collection
# ----------------------------------------------------------------------
def span_run(gc_threshold, monkeypatch=None, audit=None):
    """Four writers falsely share units 0 and 1 and each also owns a
    unit outright; readers come by only every third round, so a fault on
    an owned unit coalesces a three-interval span that the other two
    readers then request again, while the shared units' notices
    interleave writers (single-interval runs).  A lock-protected counter
    adds intervals between the barrier ones."""
    if audit is not None:
        real = IntervalStore.collect

        def audited(self, known_vc, referenced):
            before = {
                (p, i): set(iv.units.tolist())
                for p in range(self.nprocs)
                for i, iv in self._by_proc[p].items()
            }
            keys_before = set(self.diff_scan_cache)
            dropped = real(self, known_vc, referenced)
            audit(self, before, keys_before, dropped)
            return dropped

        monkeypatch.setattr(IntervalStore, "collect", audited)
    tmk = TreadMarks(
        SimConfig(nprocs=4, gc_threshold=gc_threshold), heap_bytes=1 << 16
    )
    arr = tmk.array("a", (8192,), "uint32")

    def body(proc):
        total = 0.0
        for r in range(30):
            arr.write(proc, proc.id * 16, np.full(8, r + 1, np.uint32))
            arr.write(proc, 1024 + proc.id * 16 + r % 8, np.full(1, r, np.uint32))
            arr.write(proc, (4 + proc.id) * 1024 + r, np.full(2, r + 7, np.uint32))
            proc.acquire(0)
            arr.write(proc, 2048, arr.read(proc, 2048, 1) + 1)
            proc.release(0)
            proc.barrier(2 * r)
            if r % 3 == 2:
                for other in range(4):
                    total += float(arr.read(proc, other * 16, 8).sum())
                total += float(arr.read(proc, 1024, 64).sum())
                for other in range(4):
                    total += float(arr.read(proc, (4 + other) * 1024, 32).sum())
            proc.barrier(2 * r + 1)
        return total + float(arr.read(proc, 2048, 1)[0])

    return tmk, tmk.run(body)


def test_gc_every_barrier_equals_no_gc_in_every_counter():
    lazy_tmk, lazy = span_run(gc_threshold=0)
    eager_tmk, eager = span_run(gc_threshold=1)
    assert eager_tmk.store.collected > 0 and lazy_tmk.store.collected == 0
    # The scenario does what it is for: multi-interval spans, shared.
    spans = [k for k in lazy_tmk.store.diff_scan_cache if k[2] != k[3]]
    assert spans and lazy.stats.diffs_applied > lazy.stats.diffs_created
    assert eager.checksum == lazy.checksum
    assert eager.time_us == lazy.time_us
    assert eager.proc_times_us == lazy.proc_times_us
    assert eager.comm == lazy.comm
    assert eager.stats == lazy.stats  # every counter and fault record
    assert eager.signature == lazy.signature
    # Eviction bounds the cache; without GC it only grows.
    assert len(eager_tmk.store.diff_scan_cache) < len(
        lazy_tmk.store.diff_scan_cache
    )


def test_no_cache_key_names_a_reclaimed_interval(monkeypatch):
    seen = {"collects": 0, "evicted": 0}

    def audit(store, before, keys_before, dropped):
        live = {(p, i) for p in range(store.nprocs) for i in store._by_proc[p]}
        gone = set(before) - live
        assert len(gone) == dropped
        for p, unit, first, last in store.diff_scan_cache:
            assert (p, first) in live and (p, last) in live
            for i in range(first, last + 1):
                assert (p, i) not in gone or unit not in before[p, i]
        # ...and nothing was evicted that still has every interval live.
        for p, unit, first, last in sorted(keys_before - set(store.diff_scan_cache)):
            assert any(
                (p, i) in gone and unit in before[p, i]
                for i in range(first, last + 1)
            )
        seen["collects"] += 1
        seen["evicted"] += len(keys_before) - len(store.diff_scan_cache)

    span_run(gc_threshold=1, monkeypatch=monkeypatch, audit=audit)
    assert seen["collects"] > 10 and seen["evicted"] > 10


def hand_driven(words=(1, 2), **cfg):
    """Protocol engines driven by hand (no threads): proc 0 closes one
    interval per entry of ``words``, each writing that one word (unit 0
    is words 0..1023); the two other processors are then invalidated."""
    tmk = TreadMarks(SimConfig(nprocs=3, **cfg), heap_bytes=1 << 14)
    writer, *readers = tmk.procs
    for value, word in enumerate(words, start=1):
        writer.write_words(word, np.array([value], np.uint32))
        writer.close_interval()
    for reader in readers:
        reader.apply_notices_upto(writer.vc)
    return tmk, writer, readers


def test_second_requester_is_served_the_cached_span(monkeypatch):
    tmk, writer, (r1, r2) = hand_driven(trace=True)
    installed = {1: [], 2: []}
    for reader in (r1, r2):
        real = reader.install
        monkeypatch.setattr(
            reader, "install",
            lambda d, m, real=real, log=installed[reader.pid]: (
                log.append(d), real(d, m)
            ),
        )
    assert r1.read_words(0, 4).tolist() == [0, 1, 2, 0]
    key = (0, 0, 1, 2)
    merged = tmk.store.diff_scan_cache[key]
    assert merged.idx.tolist() == [1, 2]
    assert r2.read_words(0, 4).tolist() == [0, 1, 2, 0]
    assert installed[1] == [merged] and installed[2] == [merged]
    assert installed[1][0] is installed[2][0] is merged
    # One scan, one diff_create event -- charged to the first requester.
    assert tmk.stats.diffs_created == 1
    assert tmk.stats.diffs_applied == 2
    creates = tmk.trace.by_kind("diff_create")
    assert len(creates) == 1 and creates[0].nwords == 2


def test_merged_cached_diff_is_read_only():
    tmk, _, (r1, _r2) = hand_driven()
    r1.read_words(0, 4)
    merged = tmk.store.diff_scan_cache[0, 0, 1, 2]
    assert not merged.idx.flags.writeable
    assert not merged.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        merged.values[0] = 99


@pytest.mark.parametrize("remembered", [(), (1,), (2,)])
def test_gc_safety_violation_is_not_hidden_by_the_span_cache(remembered):
    """A collector that forgets a pending notice must still be caught:
    the span's cache entry leaves with the first of its intervals to go
    -- whichever that is -- so the forgotten requester misses and
    ``store.get`` raises."""
    tmk, writer, (r1, r2) = hand_driven()
    r1.read_words(0, 4)
    key = (0, 0, 1, 2)
    assert key in tmk.store.diff_scan_cache
    referenced = {(0, i) for i in remembered}  # r2 holds (0, 1) and (0, 2)
    assert tmk.store.collect(writer.vc, referenced) == 2 - len(remembered)
    assert key not in tmk.store.diff_scan_cache
    with pytest.raises(KeyError, match="garbage collected while still needed"):
        r2.read_words(0, 4)


def test_span_outlives_an_interval_that_wrote_another_unit():
    """Interval 2 lies inside the span (0, unit 0, 1..3) but wrote only
    unit 1: reclaiming it takes unit 1's entry and leaves the span, so
    the next requester is still served -- and charged -- as a hit."""
    tmk, writer, (r1, r2) = hand_driven(words=(1, 1024 + 1, 2))
    r1.read_words(0, 4)
    r1.read_words(1024, 4)
    r2.read_words(1024, 4)
    assert set(tmk.store.diff_scan_cache) == {(0, 0, 1, 3), (0, 1, 2, 2)}
    referenced = {(nt.proc, nt.index) for nt in r2.pending_notices()}
    assert referenced == {(0, 1), (0, 3)}
    assert tmk.store.collect(writer.vc, referenced) == 1
    assert set(tmk.store.diff_scan_cache) == {(0, 0, 1, 3)}
    created = tmk.stats.diffs_created
    assert r2.read_words(0, 4).tolist() == [0, 1, 3, 0]
    assert tmk.stats.diffs_created == created


def test_span_with_live_intervals_survives_collect():
    tmk, writer, (r1, r2) = hand_driven()
    r1.read_words(0, 4)
    referenced = {(nt.proc, nt.index) for nt in r2.pending_notices()}
    assert tmk.store.collect(writer.vc, referenced) == 0
    cached = tmk.store.diff_scan_cache[0, 0, 1, 2]
    r2.read_words(0, 4)
    assert tmk.stats.diffs_created == 1
    assert tmk.store.diff_scan_cache[0, 0, 1, 2] is cached
