"""Heap-geometry properties (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.address_space import SharedHeapLayout

layouts = st.builds(
    SharedHeapLayout,
    st.integers(4096, 1 << 20),
    st.just(4096),
    st.sampled_from([4096, 8192, 16384]),
)


@given(layouts)
def test_heap_rounding_invariants(lay):
    assert lay.heap_bytes % lay.unit_bytes == 0
    assert lay.nwords * 4 == lay.heap_bytes
    assert lay.npages * 4096 == lay.heap_bytes
    assert lay.nunits * lay.unit_bytes == lay.heap_bytes


@given(layouts, st.data())
def test_units_of_range_covers_exactly_the_range(lay, data):
    word0 = data.draw(st.integers(0, lay.nwords - 1))
    nwords = data.draw(st.integers(1, lay.nwords - word0))
    units = list(lay.units_of_range(word0, nwords))
    # Contiguous, includes first and last word's units, nothing more.
    assert units == list(range(units[0], units[-1] + 1))
    assert units[0] == lay.unit_of_word(word0)
    assert units[-1] == lay.unit_of_word(word0 + nwords - 1)
    w0, w1 = lay.unit_word_range(units[0])
    assert w0 <= word0 < w1


@given(layouts, st.data())
def test_unit_word_ranges_partition_heap(lay, data):
    unit = data.draw(st.integers(0, lay.nunits - 1))
    w0, w1 = lay.unit_word_range(unit)
    assert w1 - w0 == lay.words_per_unit
    assert lay.unit_of_word(w0) == unit
    assert lay.unit_of_word(w1 - 1) == unit


@given(st.lists(st.integers(4, 10_000), min_size=1, max_size=12), st.booleans())
@settings(max_examples=40)
def test_malloc_never_overlaps(sizes, page_align):
    lay = SharedHeapLayout(1 << 22, 4096, 4096)
    spans = []
    for i, nbytes in enumerate(sizes):
        a = lay.malloc(f"a{i}", nbytes, page_align=page_align)
        spans.append((a.offset, a.offset + a.nbytes))
    spans.sort()
    for (s0, e0), (s1, e1) in zip(spans[:-1], spans[1:], strict=True):
        assert e0 <= s1
    for s, e in spans:
        assert s % 4 == 0 and (e - s) % 4 == 0
        if page_align:
            assert s % 4096 == 0
