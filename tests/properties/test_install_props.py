"""``LrcProc.install`` -- the one kernel through which diff data enters
a processor's memory -- held to the loop it replaced: ``apply_diff``
into the unit view, then ``WordTracker.mark`` of the installed offsets.

Random diff sequences *with* overlaps (a later message re-installs words
an earlier one left pending), over every shape the kernel branches on:
empty, single-run (the slice path), sparse (the offset-list path) and
the whole-unit diff hlrc/swi ship."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.address_space import SharedHeapLayout
from repro.dsm.diff import Diff, _wire_bytes, apply_diff, whole_unit_diff
from repro.dsm.intervals import IntervalStore
from repro.dsm.lrc import LrcProc
from repro.sim.clock import Clock
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.stats.counters import ProtocolStats
from tests.properties.test_diff_props import unit_diffs

UNIT_WORDS = 32
NUNITS = 3
CONFIG = SimConfig(nprocs=1, page_size=UNIT_WORDS * 4)


def make_proc():
    """A real protocol engine over a 3-unit heap, and the credits its
    tracker hands out."""
    credits = defaultdict(int)

    def credit(msg_id, nwords):
        credits[msg_id] += nwords

    layout = SharedHeapLayout(
        NUNITS * UNIT_WORDS * 4, CONFIG.page_size, CONFIG.unit_bytes
    )
    proc = LrcProc(
        0, layout, CONFIG, IntervalStore(1), Network(CONFIG), ProtocolStats(),
        Clock(), credit,
    )
    return proc, credits


def install_ref(proc, d, msg_id):
    """What every install site did before the kernel existed."""
    apply_diff(d, proc.space.unit_view(d.unit))
    if d.nwords:
        w0, _ = proc.layout.unit_word_range(d.unit)
        proc.tracker.mark(d.idx.astype(np.int64) + w0, msg_id)


# A local read or write between installs takes words out of the pending
# state, so later installs meet a mix of fresh and already-pending words.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"), unit_diffs(UNIT_WORDS, NUNITS), st.integers(0, 5)
        ),
        st.tuples(
            st.sampled_from(["read", "write"]),
            st.integers(0, NUNITS * UNIT_WORDS - 1),
            st.integers(1, UNIT_WORDS),
        ),
    ),
    max_size=24,
)


@given(steps)
@settings(max_examples=200, deadline=None)
def test_install_matches_apply_then_mark(sequence):
    new, new_credits = make_proc()
    ref, ref_credits = make_proc()
    for kind, a, b in sequence:
        if kind == "install":
            new.install(a, b)
            install_ref(ref, a, b)
        else:
            n = min(b, NUNITS * UNIT_WORDS - a)
            for proc in (new, ref):
                if kind == "read":
                    proc.tracker.on_read(a, n)
                else:
                    proc.tracker.on_write(a, n)
        assert np.array_equal(new.space.words, ref.space.words)
        assert new.tracker.pending_count() == ref.tracker.pending_count()
        assert new.tracker._unit_pending == ref.tracker._unit_pending
    assert sum(new.tracker._unit_pending) == new.tracker.pending_count()
    # Reading every word resolves every pending tag: the credits are the
    # whole of what the owner array held.
    for proc in (new, ref):
        proc.tracker.on_read(0, NUNITS * UNIT_WORDS)
    assert dict(new_credits) == dict(ref_credits)
    assert new.tracker.pending_count() == 0


def test_whole_unit_diff_is_a_single_run_of_the_source_words():
    src = np.arange(UNIT_WORDS, dtype=np.uint32) + 100
    proc, credits = make_proc()
    proc.install(whole_unit_diff(1, src), 4)
    assert np.array_equal(proc.space.unit_view(1), src)
    assert not proc.space.unit_view(0).any() and not proc.space.unit_view(2).any()
    assert proc.tracker.pending_count() == UNIT_WORDS
    proc.tracker.on_read(UNIT_WORDS, UNIT_WORDS)
    assert credits == {4: UNIT_WORDS}


@pytest.mark.parametrize("offsets", [[UNIT_WORDS], [3, UNIT_WORDS + 2],
                                     list(range(4, UNIT_WORDS + 1))])
def test_install_rejects_offsets_beyond_the_unit(offsets):
    """A run that would spill into the next unit must fail as loudly on
    the slice path as a fancy index would."""
    idx = np.array(offsets, dtype=np.int32)
    d = Diff(unit=0, idx=idx, values=np.ones(len(offsets), np.uint32),
             wire_bytes=_wire_bytes(idx), nwords=len(offsets))
    proc, _ = make_proc()
    with pytest.raises(IndexError):
        proc.install(d, 0)
    assert not proc.space.words.any()
    assert proc.tracker.pending_count() == 0
