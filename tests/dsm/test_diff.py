"""Twin/diff machinery: creation, application, merging, wire sizes."""

import numpy as np
import pytest

from repro.dsm.diff import (
    DIFF_HEADER_BYTES,
    RUN_HEADER_BYTES,
    WORD,
    Diff,
    apply_diff,
    create_diff,
    merge_diffs,
)


def unit_words(values):
    return np.array(values, dtype=np.uint32)


def test_empty_diff():
    twin = unit_words([1, 2, 3, 4])
    d = create_diff(0, twin, twin.copy())
    assert d.nwords == 0
    assert d.wire_bytes == DIFF_HEADER_BYTES


def test_detects_changed_words():
    twin = unit_words([1, 2, 3, 4])
    cur = unit_words([1, 9, 3, 7])
    d = create_diff(5, twin, cur)
    assert d.unit == 5
    assert list(d.idx) == [1, 3]
    assert list(d.values) == [9, 7]


def test_wire_bytes_run_length():
    twin = unit_words([0] * 10)
    cur = twin.copy()
    cur[2:5] = 1  # one run of 3
    cur[8] = 1    # second run of 1
    d = create_diff(0, twin, cur)
    assert d.wire_bytes == DIFF_HEADER_BYTES + 2 * RUN_HEADER_BYTES + 4 * WORD


def test_single_run_cheaper_than_scattered():
    twin = unit_words([0] * 16)
    contiguous = twin.copy()
    contiguous[0:4] = 1
    scattered = twin.copy()
    scattered[::4] = 1
    dc = create_diff(0, twin, contiguous)
    ds = create_diff(0, twin, scattered)
    assert dc.nwords == ds.nwords == 4
    assert dc.wire_bytes < ds.wire_bytes


def test_apply_roundtrip():
    rng = np.random.default_rng(0)
    twin = rng.integers(0, 2**32, 1024, dtype=np.uint32)
    cur = twin.copy()
    cur[rng.choice(1024, 100, replace=False)] += 1
    d = create_diff(0, twin, cur)
    target = twin.copy()
    apply_diff(d, target)
    assert np.array_equal(target, cur)


def test_apply_out_of_range_rejected():
    d = Diff(unit=0, idx=np.array([10], np.int32), values=np.array([1], np.uint32), wire_bytes=0, nwords=1)
    with pytest.raises(IndexError):
        apply_diff(d, np.zeros(4, np.uint32))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        create_diff(0, np.zeros(4, np.uint32), np.zeros(5, np.uint32))


class TestMerge:
    def test_single_diff_passthrough(self):
        twin = unit_words([0, 0])
        d = create_diff(0, twin, unit_words([1, 0]))
        assert merge_diffs([d], 2) is d

    def test_latest_value_wins(self):
        base = unit_words([0, 0, 0, 0])
        d1 = create_diff(0, base, unit_words([1, 1, 0, 0]))
        d2 = create_diff(0, unit_words([1, 1, 0, 0]), unit_words([2, 1, 5, 0]))
        m = merge_diffs([d1, d2], 4)
        target = base.copy()
        apply_diff(m, target)
        assert list(target) == [2, 1, 5, 0]

    def test_merge_equals_sequential_application(self):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 100, 256, dtype=np.uint32)
        cur = base.copy()
        diffs = []
        for _ in range(5):
            prev = cur.copy()
            cur[rng.choice(256, 30, replace=False)] = rng.integers(100, 200)
            diffs.append(create_diff(0, prev, cur))
        merged = merge_diffs(diffs, 256)
        via_merge = base.copy()
        apply_diff(merged, via_merge)
        via_seq = base.copy()
        for d in diffs:
            apply_diff(d, via_seq)
        assert np.array_equal(via_merge, via_seq)

    def test_merged_never_larger_than_sum(self):
        base = unit_words([0] * 64)
        a = create_diff(0, base, np.arange(64, dtype=np.uint32))
        b = create_diff(0, np.arange(64, dtype=np.uint32), np.arange(1, 65, dtype=np.uint32))
        m = merge_diffs([a, b], 64)
        assert m.nwords <= a.nwords + b.nwords
        assert m.wire_bytes <= a.wire_bytes + b.wire_bytes

    def test_unit_mismatch_rejected(self):
        base = unit_words([0])
        a = create_diff(0, base, unit_words([1]))
        b = create_diff(1, base, unit_words([1]))
        with pytest.raises(ValueError):
            merge_diffs([a, b], 1)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_diffs([], 1)

    def test_merged_idx_sorted_unique(self):
        base = unit_words([0] * 8)
        d1 = create_diff(0, base, unit_words([1, 0, 1, 0, 0, 0, 0, 0]))
        d2 = create_diff(0, unit_words([1, 0, 1, 0, 0, 0, 0, 0]),
                         unit_words([2, 0, 1, 0, 0, 3, 0, 0]))
        m = merge_diffs([d1, d2], 8)
        idx = list(m.idx)
        assert idx == sorted(set(idx))
