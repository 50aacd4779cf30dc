"""Interval store: closing, retrieval, the packed diff record."""

import numpy as np
import pytest

from repro.dsm.diff import pack_diffs
from repro.dsm.intervals import IntervalStore
from repro.dsm.vc import VectorClock


@pytest.fixture
def store():
    return IntervalStore(nprocs=3)


def close(store, proc, vc_entries, units):
    """Close ``proc``'s next interval (clock ``vc_entries``) as having
    written word 0 of each of ``units`` (4-word units) with value 1."""
    units = np.asarray(sorted(units), dtype=np.int64)
    current = np.zeros((units.shape[0], 4), np.uint32)
    current[:, 0] = 1
    diffs = pack_diffs(units, np.zeros_like(current), current)
    return store.close_interval(proc, VectorClock(vc_entries), diffs)


def test_close_assigns_index_and_commit_seq(store):
    i1 = close(store, 0, [1, 0, 0], [0])
    i2 = close(store, 1, [0, 1, 0], [1])
    assert (i1.proc, i1.index) == (0, 1)
    assert i2.commit_seq > i1.commit_seq


def test_close_requires_ticked_vc(store):
    with pytest.raises(ValueError):
        close(store, 0, [2, 0, 0], [0])  # first interval must have vc[0]==1


def test_get(store):
    close(store, 2, [0, 0, 1], [5])
    d = store.get(2, 1).diff_for(5)
    assert (d.unit, d.idx.tolist(), d.values.tolist()) == (5, [0], [1])
    with pytest.raises(KeyError):
        store.get(2, 2)
    with pytest.raises(KeyError):
        store.get(0, 1)


def test_count(store):
    close(store, 0, [1, 0, 0], [0])
    close(store, 0, [2, 0, 0], [0])
    close(store, 1, [0, 1, 0], [0])
    assert store.count() == 3
    assert store.count(0) == 2
    assert store.count(2) == 0


def test_intervals_between(store):
    for i in range(1, 5):
        close(store, 0, [i, 0, 0], [0])
    got = [iv.index for iv in store.intervals_between(0, 1, 3)]
    assert got == [2, 3]


def test_commit_seq_strictly_increasing(store):
    seqs = [close(store, p, e, [0]).commit_seq
            for p, e in [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1]),
                         (0, [2, 1, 1])]]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_diff_for_missing_unit_raises(store):
    iv = close(store, 0, [1, 0, 0], [3])
    with pytest.raises(KeyError):
        iv.diff_for(4)


def test_interval_starts_unreferenced(store):
    iv = close(store, 1, [0, 1, 0], [7, 3])
    assert (iv.refs, iv.spans) == (0, None)
    assert iv.units.tolist() == [3, 7]
    assert not iv.units.flags.writeable
