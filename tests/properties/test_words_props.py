"""Property-based tests for WordTracker read-credits/write-clears
semantics (the Section-5.3 usefulness methodology), checked against an
independent dict-based model."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.words import WordTracker

NWORDS = 64


class ModelTracker:
    """Reference semantics: one pending-owner map, credits on first read."""

    def __init__(self):
        self.owner = {}  # word -> msg_id
        self.credits = defaultdict(int)

    def mark(self, idx, msg_id):
        for w in idx:
            self.owner[w] = msg_id

    def on_read(self, word0, n):
        for w in range(word0, word0 + n):
            if w in self.owner:
                self.credits[self.owner.pop(w)] += 1

    def on_write(self, word0, n):
        for w in range(word0, word0 + n):
            self.owner.pop(w, None)

    def pending_count(self):
        return len(self.owner)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("mark"),
            st.lists(st.integers(0, NWORDS - 1), min_size=1, max_size=16,
                     unique=True),
            st.integers(0, 9),
        ),
        st.tuples(st.just("mark_run"), st.integers(0, NWORDS - 1),
                  st.integers(1, NWORDS), st.integers(0, 9)),
        st.tuples(st.just("read"), st.integers(0, NWORDS - 1),
                  st.integers(0, NWORDS)),
        st.tuples(st.just("write"), st.integers(0, NWORDS - 1),
                  st.integers(0, NWORDS)),
    ),
    max_size=40,
)


def run_both(sequence, unit_words=0):
    credits = defaultdict(int)
    tracker = WordTracker(NWORDS, lambda m, c: credits.__setitem__(
        m, credits[m] + c), unit_words=unit_words)
    model = ModelTracker()
    for op in sequence:
        if op[0] == "mark":
            _, idx, msg = op
            tracker.mark(np.array(sorted(idx), dtype=np.int64), msg)
            model.mark(idx, msg)
        elif op[0] == "mark_run":
            _, w0, n, msg = op
            n = min(n, NWORDS - w0)
            tracker.mark_run(w0, n, msg)
            model.mark(range(w0, w0 + n), msg)
        elif op[0] == "read":
            _, w0, n = op
            n = min(n, NWORDS - w0)
            tracker.on_read(w0, n)
            model.on_read(w0, n)
        else:
            _, w0, n = op
            n = min(n, NWORDS - w0)
            tracker.on_write(w0, n)
            model.on_write(w0, n)
    return tracker, model, credits


@given(ops, st.sampled_from([0, 16]))
@settings(max_examples=150, deadline=None)
def test_tracker_matches_reference_model(sequence, unit_words):
    """Message id 0 is in the strategy: the owner array stores
    ``msg_id + 1`` so that 0 can mean "not pending"."""
    tracker, model, credits = run_both(sequence, unit_words)
    assert dict(credits) == dict(model.credits)
    assert tracker.pending_count() == model.pending_count()
    uw = unit_words or NWORDS
    per_unit = [0] * (NWORDS // uw)
    for w in model.owner:
        per_unit[w // uw] += 1
    assert tracker._unit_pending == per_unit
    # Whatever is still pending is tagged with the right message.
    tracker.on_read(0, NWORDS)
    model.on_read(0, NWORDS)
    assert dict(credits) == dict(model.credits)


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_read_credits_each_pending_word_exactly_once(idx):
    """First read credits the carrying message per word; a second read of
    the same range credits nothing (words left the pending state)."""
    tracker, _, credits = run_both([("mark", idx, 5)])
    tracker.on_read(0, NWORDS)
    assert credits == {5: len(idx)}
    tracker.on_read(0, NWORDS)
    assert credits == {5: len(idx)}
    assert tracker.pending_count() == 0


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_write_clears_without_credit(idx):
    """Overwrite-before-read finalizes the words as useless: no credit,
    and a later read of the range credits nothing either."""
    tracker, _, credits = run_both([("mark", idx, 3)])
    tracker.on_write(0, NWORDS)
    assert credits == {}
    assert tracker.pending_count() == 0
    tracker.on_read(0, NWORDS)
    assert credits == {}


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_reinstall_retags_to_latest_message(idx):
    """A word re-installed by a later diff before being read belongs to
    the later message; the earlier message gets no credit for it."""
    tracker, _, credits = run_both([("mark", idx, 1), ("mark", idx, 2)])
    tracker.on_read(0, NWORDS)
    assert credits == {2: len(idx)}


@given(ops)
@settings(max_examples=60, deadline=None)
def test_pending_words_never_negative_and_bounded(sequence):
    tracker, _, _ = run_both(sequence)
    assert 0 <= tracker.pending_count() <= NWORDS
