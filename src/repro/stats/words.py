"""Per-processor word-usefulness tracking (Section 5.3 methodology).

When a diff is applied to a processor's copy of a unit, every word the
diff installed enters a *pending* state tagged with the id of the message
that carried it.  The first subsequent local access decides the word's
fate:

* a **read** of a pending word makes it *useful* -- the carrying message
  is credited;
* a **write** (overwrite before any read) clears the word without credit;
* a word still pending at the end of the run was never read -- useless.

Useless data per message is then ``words_carried - words_useful``, and a
message with zero useful words is a *useless message*.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.memory import sparse_zeros


class WordTracker:
    """Tracks pending diff-installed words for one processor.

    ``credit`` is called as ``credit(msg_id, nwords)`` whenever pending
    words are usefully read; the run harness points it at the network
    ledger so that message records accumulate their useful-word counts.

    ``unit_words`` sizes an optional per-consistency-unit pending
    counter: the access path is hot (every shared read and write lands
    here), so :meth:`on_read`/:meth:`on_write` first check a plain
    Python list of per-unit counts and exit without touching numpy when
    the range's units carry nothing pending -- the overwhelmingly common
    case between faults.
    """

    def __init__(
        self,
        nwords: int,
        credit: Callable[[int, int], None],
        unit_words: int = 0,
    ) -> None:
        self._owner = sparse_zeros(nwords, np.int32)
        """``msg_id + 1`` of the message that installed each pending
        word, 0 where nothing is pending.  Zero-based so the array can
        come from zeroed memory: it is as large as the heap, one per
        processor, and pages no diff ever lands on are never touched
        and never become resident."""
        self._credit = credit
        self._npending = 0
        """Exact count of words currently pending, maintained so the
        bulk fast path can skip per-range scans with one compare."""
        self._uw = unit_words if unit_words > 0 else nwords
        self._unit_pending = [0] * (-(-nwords // self._uw))
        """Pending-word count per consistency unit (plain list: indexed
        ~5x faster than a numpy array on the scalar access path)."""

    # ------------------------------------------------------------------
    # Protocol-side events
    # ------------------------------------------------------------------
    def mark(self, word_idx: np.ndarray, msg_id: int) -> None:
        """Words at global offsets ``word_idx`` (distinct offsets) were
        installed by message ``msg_id`` (a diff application).  A word
        re-installed by a later diff before being read re-tags: the
        earlier message's copy was overwritten unread, hence useless for
        that word."""
        fresh = self._owner[word_idx] == 0
        n = int(np.count_nonzero(fresh))
        self._owner[word_idx] = msg_id + 1
        if not n:
            return
        self._npending += n
        u0 = int(word_idx[0]) // self._uw
        u1 = int(word_idx[-1]) // self._uw
        if u0 == u1:
            self._unit_pending[u0] += n
        else:
            units, counts = np.unique(
                word_idx[fresh] // self._uw, return_counts=True
            )
            for u, c in zip(units.tolist(), counts.tolist(), strict=True):
                self._unit_pending[u] += c

    def mark_run(self, word0: int, nwords: int, msg_id: int) -> None:
        """:meth:`mark` of the contiguous offsets ``[word0,
        word0+nwords)``, as slices: no index array is built or
        gathered through."""
        uw = self._uw
        unit = word0 // uw
        if (word0 + nwords - 1) // uw != unit:
            self.mark(np.arange(word0, word0 + nwords, dtype=np.int64), msg_id)
            return
        owner = self._owner[word0 : word0 + nwords]
        n = nwords - int(np.count_nonzero(owner))
        owner[:] = msg_id + 1
        self._npending += n
        self._unit_pending[unit] += n

    # ------------------------------------------------------------------
    # Application-side events
    # ------------------------------------------------------------------
    def _units_clear(self, word0: int, nwords: int) -> bool:
        """True when no unit overlapping the range has pending words."""
        u0 = word0 // self._uw
        u1 = (word0 + nwords - 1) // self._uw
        if u0 == u1:
            return not self._unit_pending[u0]
        return not any(self._unit_pending[u0 : u1 + 1])

    def _debit_units(
        self, word0: int, nwords: int, pending: np.ndarray, n: int
    ) -> None:
        """Subtract ``n`` cleared words from the per-unit counters
        (``pending`` is the range-local mask of the cleared words)."""
        u0 = word0 // self._uw
        u1 = (word0 + nwords - 1) // self._uw
        if u0 == u1:
            self._unit_pending[u0] -= n
        else:
            idx = word0 + np.flatnonzero(pending)
            units, counts = np.unique(idx // self._uw, return_counts=True)
            for u, c in zip(units.tolist(), counts.tolist(), strict=True):
                self._unit_pending[u] -= c

    def on_read(self, word0: int, nwords: int) -> None:
        """A local read of ``[word0, word0+nwords)``: resolve any pending
        words in the range as useful."""
        if not self._npending or self._units_clear(word0, nwords):
            return
        if nwords == 1:
            # Single-word read (lock-protected counters, heap keys):
            # scalar indexing skips the slice/compare/count machinery.
            m = int(self._owner[word0])
            if m:
                self._credit(m - 1, 1)
                self._owner[word0] = 0
                self._npending -= 1
                self._unit_pending[word0 // self._uw] -= 1
            return
        ids = self._owner[word0 : word0 + nwords]
        pending = ids != 0
        n = int(np.count_nonzero(pending))
        if not n:
            return
        hit = ids[pending]
        if n <= 64:
            # Fine-grained reads resolve a handful of words; Python dict
            # counting beats np.unique's sort at this size by ~10x.
            by_msg: dict = {}
            for m in hit.tolist():
                by_msg[m] = by_msg.get(m, 0) + 1
            for m, c in by_msg.items():
                self._credit(m - 1, c)
        else:
            msgs, counts = np.unique(hit, return_counts=True)
            for m, c in zip(msgs.tolist(), counts.tolist(), strict=True):
                self._credit(m - 1, c)
        self._debit_units(word0, nwords, pending, n)
        ids[pending] = 0  # in-place on the view -> clears the tracker
        self._npending -= n

    def on_write(self, word0: int, nwords: int) -> None:
        """A local write: pending words in the range are overwritten
        before being read -- cleared without credit (useless)."""
        if not self._npending or self._units_clear(word0, nwords):
            return
        if nwords == 1:
            if int(self._owner[word0]):
                self._owner[word0] = 0
                self._npending -= 1
                self._unit_pending[word0 // self._uw] -= 1
            return
        ids = self._owner[word0 : word0 + nwords]
        pending = ids != 0
        n = int(np.count_nonzero(pending))
        if not n:
            return
        self._debit_units(word0, nwords, pending, n)
        ids[pending] = 0
        self._npending -= n

    # ------------------------------------------------------------------
    # Batched application-side events (LrcProc._batched)
    # ------------------------------------------------------------------
    def resolve_read(self, idx: np.ndarray) -> None:
        """Resolve a batch of read word offsets (flat, pairwise
        distinct) in one vectorized pass.  Equivalent to per-range
        :meth:`on_read` calls over any partition of ``idx``: each word
        is credited at most once and credit totals are additive, so
        batching cannot change any counter."""
        if not self._npending:
            return
        ids = self._owner[idx]
        pending = ids != 0
        n = int(np.count_nonzero(pending))
        if not n:
            return
        pend_idx = idx[pending]
        msgs, counts = np.unique(ids[pending], return_counts=True)
        for m, c in zip(msgs.tolist(), counts.tolist(), strict=True):
            self._credit(m - 1, c)
        self._owner[pend_idx] = 0
        self._npending -= n
        units, ucounts = np.unique(pend_idx // self._uw, return_counts=True)
        for u, c in zip(units.tolist(), ucounts.tolist(), strict=True):
            self._unit_pending[u] -= c

    def resolve_write(self, idx: np.ndarray) -> None:
        """Batched :meth:`on_write` over flat distinct word offsets:
        pending words overwritten before any read, cleared uncredited."""
        if not self._npending:
            return
        ids = self._owner[idx]
        pending = ids != 0
        n = int(np.count_nonzero(pending))
        if not n:
            return
        pend_idx = idx[pending]
        self._owner[pend_idx] = 0
        self._npending -= n
        units, ucounts = np.unique(pend_idx // self._uw, return_counts=True)
        for u, c in zip(units.tolist(), ucounts.tolist(), strict=True):
            self._unit_pending[u] -= c

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Words still pending (will finalize as useless)."""
        return self._npending
