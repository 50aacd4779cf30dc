"""Property-based tests for the twin/diff machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsm.diff import (
    Diff,
    _wire_bytes,
    apply_diff,
    create_diff,
    merge_diffs,
    whole_unit_diff,
)

words = hnp.arrays(np.uint32, st.integers(4, 256), elements=st.integers(0, 2**32 - 1))


@given(words)
@settings(max_examples=60, deadline=None)
def test_roundtrip_reconstructs_modified(base):
    rng = np.random.default_rng(int(base.sum()) % 2**31)
    cur = base.copy()
    k = rng.integers(0, base.size + 1)
    if k:
        cur[rng.choice(base.size, k, replace=False)] ^= 0xDEADBEEF
    d = create_diff(0, base, cur)
    target = base.copy()
    apply_diff(d, target)
    assert np.array_equal(target, cur)


@given(words)
@settings(max_examples=60, deadline=None)
def test_diff_indices_sorted_and_minimal(base):
    cur = base.copy()
    cur[0] ^= 1
    d = create_diff(0, base, cur)
    assert list(d.idx) == sorted(set(d.idx.tolist()))
    assert d.nwords == int(np.count_nonzero(base != cur))


@given(words, st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_merge_equals_sequential_application(base, nsteps, data):
    """Coalescing a chain of same-writer diffs must be equivalent to
    applying them one by one (lazy-diffing equivalence)."""
    cur = base.copy()
    diffs = []
    for step in range(nsteps):
        prev = cur.copy()
        n = data.draw(st.integers(0, base.size))
        if n:
            idx = data.draw(
                st.lists(
                    st.integers(0, base.size - 1),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
            cur[np.array(idx)] = step + 1
        diffs.append(create_diff(0, prev, cur))
    merged = merge_diffs(diffs, base.size)

    via_merged = base.copy()
    apply_diff(merged, via_merged)
    via_seq = base.copy()
    for d in diffs:
        apply_diff(d, via_seq)
    assert np.array_equal(via_merged, via_seq)
    assert np.array_equal(via_merged, cur)


@given(words)
@settings(max_examples=40, deadline=None)
def test_wire_bytes_bounded(base):
    cur = base.copy()
    cur[::2] ^= 5
    d = create_diff(0, base, cur)
    # Wire size is at least the data words and at most data + one run
    # header per word + framing.
    assert d.wire_bytes >= d.nwords * 4
    assert d.wire_bytes <= d.nwords * 12 + 16


# ----------------------------------------------------------------------
# Exact recovery: the diff carries precisely the modified words.
# ----------------------------------------------------------------------
@given(words, st.data())
@settings(max_examples=60, deadline=None)
def test_diff_carries_exactly_the_modified_words(base, data):
    cur = base.copy()
    n = data.draw(st.integers(0, base.size))
    picked = data.draw(
        st.lists(st.integers(0, base.size - 1), min_size=n, max_size=n,
                 unique=True)
    )
    for i in picked:
        cur[i] = ~cur[i]  # bit-flip guarantees inequality
    d = create_diff(0, base, cur)
    modified = sorted(picked)
    assert d.idx.tolist() == modified
    assert d.values.tolist() == [int(cur[i]) for i in modified]
    # ...and nothing else: applying to a scribbled target fixes exactly
    # the modified words, leaving every other word untouched.
    scratch = data.draw(
        hnp.arrays(np.uint32, base.size, elements=st.integers(0, 2**32 - 1))
    )
    target = scratch.copy()
    apply_diff(d, target)
    picked_idx = np.array(modified, dtype=int)
    untouched = np.setdiff1d(np.arange(base.size), picked_idx)
    assert np.array_equal(target[untouched], scratch[untouched])
    assert np.array_equal(target[picked_idx], cur[picked_idx])


# ----------------------------------------------------------------------
# Wire size vs an independent reference run-length encoder.
# ----------------------------------------------------------------------
def reference_rle_bytes(offsets) -> int:
    """Naive reference encoder: walk the sorted offsets, open a new
    (offset, length) run whenever the gap exceeds one word, charge
    RUN_HEADER_BYTES per run, WORD per data word, DIFF_HEADER_BYTES
    framing.  Mirrors the TreadMarks diff wire format."""
    from repro.dsm.diff import DIFF_HEADER_BYTES, RUN_HEADER_BYTES, WORD

    offsets = list(offsets)
    if not offsets:
        return DIFF_HEADER_BYTES
    runs = 1
    for prev, nxt in zip(offsets, offsets[1:], strict=False):
        if nxt != prev + 1:
            runs += 1
    return DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + len(offsets) * WORD


@given(st.lists(st.integers(0, 511), unique=True))
@settings(max_examples=100, deadline=None)
def test_wire_bytes_matches_reference_encoder(offsets):
    from repro.dsm.diff import _wire_bytes

    idx = np.array(sorted(offsets), dtype=np.int32)
    assert _wire_bytes(idx) == reference_rle_bytes(sorted(offsets))


@given(words, st.data())
@settings(max_examples=60, deadline=None)
def test_created_diff_wire_bytes_matches_reference(base, data):
    cur = base.copy()
    n = data.draw(st.integers(0, base.size))
    picked = data.draw(
        st.lists(st.integers(0, base.size - 1), min_size=n, max_size=n,
                 unique=True)
    )
    for i in picked:
        cur[i] = ~cur[i]
    d = create_diff(0, base, cur)
    assert d.wire_bytes == reference_rle_bytes(sorted(picked))


# ----------------------------------------------------------------------
# Edge cases: empty and full-unit diffs.
# ----------------------------------------------------------------------
@given(words)
@settings(max_examples=30, deadline=None)
def test_empty_diff_costs_only_framing(base):
    from repro.dsm.diff import DIFF_HEADER_BYTES

    d = create_diff(0, base, base.copy())
    assert d.nwords == 0
    assert d.data_bytes == 0
    assert d.wire_bytes == DIFF_HEADER_BYTES
    target = base.copy()
    apply_diff(d, target)  # no-op, no error
    assert np.array_equal(target, base)


@given(words)
@settings(max_examples=30, deadline=None)
def test_full_unit_diff_is_one_run(base):
    from repro.dsm.diff import DIFF_HEADER_BYTES, RUN_HEADER_BYTES, WORD

    cur = ~base  # every word differs
    d = create_diff(0, base, cur)
    assert d.nwords == base.size
    # One maximal run covering the unit: a single run header.
    assert d.wire_bytes == DIFF_HEADER_BYTES + RUN_HEADER_BYTES + base.size * WORD
    target = base.copy()
    apply_diff(d, target)
    assert np.array_equal(target, cur)


# ----------------------------------------------------------------------
# The scatter merge vs the sort-based merge it replaced.
# ----------------------------------------------------------------------
def merge_diffs_ref(diffs):
    """The merge kernel ``repro.dsm.diff.merge_diffs`` had until the
    span cache: concatenate every member, keep the LAST occurrence of
    each offset (``np.unique`` on the reversed stream returns first
    occurrences, which are last occurrences of the original order).
    Kept here as the reference the scatter kernel is held to."""
    if len(diffs) == 1:
        return diffs[0]
    idx = np.concatenate([d.idx for d in diffs])
    values = np.concatenate([d.values for d in diffs])
    uniq, first_pos = np.unique(idx[::-1], return_index=True)
    uniq = uniq.astype(np.int32)
    return Diff(
        unit=diffs[0].unit, idx=uniq, values=values[::-1][first_pos],
        wire_bytes=_wire_bytes(uniq), nwords=int(uniq.shape[0]),
    )


UNIT = 64


@st.composite
def unit_diffs(draw, unit_words, nunits=1):
    """A diff of one of ``nunits`` units of ``unit_words`` words, in
    every shape the kernels branch on: empty, a single run, sparse
    offsets, or the whole unit -- with values drawn freely, so that
    overlapping diffs disagree and only last-wins gives the right
    word."""
    unit = draw(st.integers(0, nunits - 1))
    shape = draw(st.sampled_from(["empty", "run", "sparse", "whole"]))
    if shape == "empty":
        offsets = []
    elif shape == "run":
        lo = draw(st.integers(0, unit_words - 1))
        offsets = list(range(lo, draw(st.integers(lo + 1, unit_words))))
    elif shape == "sparse":
        offsets = sorted(
            draw(st.sets(st.integers(0, unit_words - 1), max_size=unit_words))
        )
    else:
        offsets = list(range(unit_words))
    values = draw(
        hnp.arrays(np.uint32, len(offsets), elements=st.integers(0, 2**32 - 1))
    )
    if shape == "whole":
        return whole_unit_diff(unit, values)
    idx = np.array(offsets, dtype=np.int32)
    return Diff(
        unit=unit, idx=idx, values=values, wire_bytes=_wire_bytes(idx),
        nwords=len(offsets),
    )


@given(st.lists(unit_diffs(UNIT), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_scatter_merge_matches_sort_merge_field_for_field(diffs):
    got = merge_diffs(diffs, UNIT)
    want = merge_diffs_ref(diffs)
    assert got.unit == want.unit == 0
    assert got.idx.dtype == want.idx.dtype == np.int32
    assert got.values.dtype == want.values.dtype == np.uint32
    assert got.idx.tolist() == want.idx.tolist()
    assert got.values.tolist() == want.values.tolist()
    assert got.wire_bytes == want.wire_bytes
    assert got.nwords == want.nwords == got.idx.shape[0]
    if len(diffs) == 1:
        assert got is diffs[0]  # nothing to merge, nothing allocated
    else:
        # A merged diff is cached and shared between requesters.
        assert not got.idx.flags.writeable
        assert not got.values.flags.writeable


def test_scatter_merge_last_member_wins():
    def d(offsets, value):
        idx = np.array(offsets, dtype=np.int32)
        return Diff(
            unit=0, idx=idx, values=np.full(len(offsets), value, np.uint32),
            wire_bytes=_wire_bytes(idx), nwords=len(offsets),
        )

    m = merge_diffs([d([1, 2, 3], 7), d([], 0), d([2, 5], 8), d([2], 9)], 8)
    assert m.idx.tolist() == [1, 2, 3, 5]
    assert m.values.tolist() == [7, 9, 7, 8]


def test_scatter_merge_rejects_offsets_beyond_the_unit():
    idx = np.array([8], dtype=np.int32)
    bad = Diff(unit=0, idx=idx, values=np.ones(1, np.uint32),
               wire_bytes=_wire_bytes(idx), nwords=1)
    ok = create_diff(0, np.zeros(8, np.uint32), np.ones(8, np.uint32))
    with pytest.raises(IndexError):
        merge_diffs([ok, bad], 8)
