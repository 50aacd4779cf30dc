"""The packed interval record (``repro.dsm.diff.pack_diffs``) against
the per-unit ``create_diff`` it replaces: every diff it builds on
request must equal the reference field for field, on every row shape
the two ``diff_for`` branches split on (no run, one run anywhere in the
unit, many runs) and at every unit size the paper sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.diff import _wire_bytes, create_diff, pack_diffs

#: Words per 4, 8 and 16 KB unit.
UNIT_WORDS = [1024, 2048, 4096]


@st.composite
def change_masks(draw, unit_words):
    """One row's change mask: empty, full, one run at a drawn offset, or
    a drawn number of scattered words (usually many runs)."""
    shape = draw(st.sampled_from(["empty", "full", "run", "scattered"]))
    mask = np.zeros(unit_words, dtype=bool)
    if shape == "full":
        mask[:] = True
    elif shape == "run":
        start = draw(st.integers(0, unit_words - 1))
        mask[start : start + draw(st.integers(1, unit_words - start))] = True
    elif shape == "scattered":
        k = draw(st.integers(2, 64))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        mask[rng.choice(unit_words, k, replace=False)] = True
    return mask


@st.composite
def intervals(draw):
    """Stacked twins and current contents of a few ascending units."""
    unit_words = draw(st.sampled_from(UNIT_WORDS))
    nrows = draw(st.integers(1, 6))
    units = sorted(draw(st.lists(st.integers(0, 500), min_size=nrows,
                                 max_size=nrows, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    twins = rng.integers(0, 2**32, (nrows, unit_words), dtype=np.uint32)
    masks = np.stack([draw(change_masks(unit_words)) for _ in range(nrows)])
    # XOR with a nonzero value: exactly the masked words differ.
    flips = rng.integers(1, 2**32, (nrows, unit_words), dtype=np.uint32)
    current = np.where(masks, twins ^ flips, twins)
    return np.asarray(units, dtype=np.int64), twins, current


@given(intervals())
@settings(max_examples=80, deadline=None)
def test_diff_for_equals_create_diff_field_for_field(interval):
    units, twins, current = interval
    packed = pack_diffs(units, twins, current)
    assert packed.units.tolist() == units.tolist()
    for i, unit in enumerate(units.tolist()):
        d = packed.diff_for(unit)
        ref = create_diff(unit, twins[i], current[i])
        assert d.unit == ref.unit == unit
        assert d.idx.dtype == np.int32
        assert np.array_equal(d.idx, ref.idx)
        assert d.values.dtype == np.uint32
        assert np.array_equal(d.values, ref.values)
        assert d.nwords == ref.nwords == d.idx.shape[0] == d.values.shape[0]
        assert d.wire_bytes == ref.wire_bytes == _wire_bytes(d.idx)
        assert not d.idx.flags.writeable
        assert not d.values.flags.writeable


@given(intervals())
@settings(max_examples=30, deadline=None)
def test_record_is_read_only_and_rejects_unwritten_units(interval):
    units, twins, current = interval
    packed = pack_diffs(units, twins, current)
    for arr in (packed.units, packed.bounds, packed.values, packed.runs,
                packed.first, packed.masks):
        assert not arr.flags.writeable
    with pytest.raises(KeyError):
        packed.diff_for(int(units.max()) + 1)
    if int(units[0]) > 0:
        with pytest.raises(KeyError):
            packed.diff_for(int(units[0]) - 1)


def test_single_run_diffs_share_one_offset_array():
    """Single-run rows decode nothing: their offsets are views of one
    shared ``arange``, whatever interval they come from."""
    twins = np.zeros((2, 1024), dtype=np.uint32)
    current = twins.copy()
    current[0, 10:20] = 1
    current[1, 500:900] = 2
    a, b = (pack_diffs(np.array([3, 7]), twins, current).diff_for(u)
            for u in (3, 7))
    assert a.idx.tolist() == list(range(10, 20))
    assert b.idx.tolist() == list(range(500, 900))
    assert a.idx.base is not None and a.idx.base is b.idx.base
