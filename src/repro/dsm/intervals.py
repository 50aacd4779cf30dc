"""Interval records and write notices -- the LRC consistency metadata.

An *interval* is the span of one processor's execution between two of its
synchronization operations.  Closing an interval (at a release or barrier
arrival) records the diffs of the units the processor wrote, packed
(:class:`~repro.dsm.diff.PackedDiffs`; a :class:`Diff` is built only when
one is requested).  The :class:`Interval` is also its *write notice*:
an acquirer appends it to the pending list of each unit it invalidates,
and it counts those entries (:attr:`Interval.refs`) for the collector.

``commit_seq`` is a global monotone counter assigned at close time.
Because the scheduling engine services synchronization operations in
simulated-time order and every happens-before edge crosses such an
operation, commit order is a linear extension of the happens-before
partial order; sorting pending diffs by ``commit_seq`` therefore applies
them in a correct (and deterministic) order even when intervals are
concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsm.diff import Diff, PackedDiffs
from repro.dsm.vc import VectorClock

#: A span-cache key: ``(proc, unit, first_index, last_index)``.
SpanKey = Tuple[int, int, int, int]


@dataclass(eq=False)
class Interval:
    """One closed interval of one processor."""

    proc: int
    index: int
    """1-based interval index within ``proc`` (== vc[proc] at close)."""
    vc: VectorClock
    """The processor's vector clock when the interval closed."""
    commit_seq: int
    """Global close-order stamp; a linear extension of happens-before."""
    diffs: PackedDiffs
    """The packed diff of every unit written during the interval."""
    refs: int = 0
    """Pending-list entries naming this interval, over all processors:
    moved only by ``LrcProc._add_notices`` / ``_clear_notices``."""
    spans: Optional[List[SpanKey]] = None
    """The span-cache keys built from this interval's diffs, recorded
    by :meth:`IntervalStore.cache_span` (None until the first)."""

    @property
    def units(self) -> np.ndarray:
        """The written units, int64, ascending (read-only)."""
        return self.diffs.units

    def diff_for(self, unit: int) -> Diff:
        """The diff for ``unit``, built on request; KeyError if the
        interval did not write it."""
        return self.diffs.diff_for(unit)


class IntervalStore:
    """All closed intervals of a run, indexed by (proc, interval index).

    The store stands in for TreadMarks' per-node diff/interval caches; in
    the simulation every node can retrieve any closed interval (paying the
    modelled message costs at the protocol layer).
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._by_proc: List[Dict[int, Interval]] = [{} for _ in range(nprocs)]
        self._closed_count: List[int] = [0] * nprocs
        self._commit_counter = 0
        self.collected = 0
        """Intervals reclaimed by :meth:`collect` over the run."""
        self.diff_scan_cache: Dict[Tuple[int, int, int, int], Diff] = {}
        """The diff cache TreadMarks keeps per node: ``(proc, unit,
        first_index, last_index)`` -> the coalesced diff of ``proc``'s
        writes to ``unit`` over that span of its intervals.  The first
        request for a span pays the word-compare scan and stores the
        diff; every later requester is served the stored object.  A key
        names its constituent intervals (those of ``proc`` in the index
        range that wrote ``unit``), so equal keys mean equal diffs.
        Written only by :meth:`cache_span`; entries leave only through
        :meth:`collect`, with the intervals they were built from."""

    def close_interval(
        self, proc: int, vc: VectorClock, diffs: PackedDiffs
    ) -> Interval:
        """Record a newly closed interval; assigns its commit stamp.

        ``vc`` must already have ``proc``'s component ticked to the new
        interval's index.
        """
        expected = self._closed_count[proc] + 1
        if vc[proc] != expected:
            raise ValueError(
                f"proc {proc} closing interval {vc[proc]}, expected {expected}"
            )
        seq = self._commit_counter = self._commit_counter + 1
        interval = Interval(
            proc=proc, index=expected, vc=vc.copy(), commit_seq=seq,
            diffs=diffs,
        )
        self._by_proc[proc][expected] = interval
        self._closed_count[proc] = expected
        return interval

    def get(self, proc: int, index: int) -> Interval:
        """Interval ``index`` (1-based) of ``proc``."""
        try:
            return self._by_proc[proc][index]
        except KeyError:
            if 1 <= index <= self._closed_count[proc]:
                raise KeyError(
                    f"interval ({proc}, {index}) was garbage collected "
                    f"while still needed -- GC safety violation"
                ) from None
            raise KeyError(f"proc {proc} has no interval {index}") from None

    def count(self, proc: Optional[int] = None) -> int:
        """Number of *live* (uncollected) intervals."""
        if proc is None:
            return sum(len(d) for d in self._by_proc)
        return len(self._by_proc[proc])

    def closed_count(self, proc: int) -> int:
        """Number of intervals ever closed by ``proc`` (including
        collected ones)."""
        return self._closed_count[proc]

    def intervals_between(
        self, proc: int, after: int, upto: int
    ) -> Iterator[Interval]:
        """Intervals of ``proc`` with ``after < index <= upto``.

        This is exactly the set of write notices an acquirer with
        ``vc[proc] == after`` receives from a releaser with
        ``vc[proc] == upto``.
        """
        for i in range(after + 1, upto + 1):
            yield self.get(proc, i)

    def cache_span(
        self, key: SpanKey, diff: Diff, intervals: Sequence[Interval]
    ) -> None:
        """Cache ``diff`` under ``key``, built from ``intervals`` (the
        key's constituents), and record the key on each of them so the
        first of them :meth:`collect` reclaims takes the entry along."""
        self.diff_scan_cache[key] = diff
        for interval in intervals:
            if interval.spans is None:
                interval.spans = [key]
            else:
                interval.spans.append(key)

    def collect(self, known_vc: VectorClock) -> int:
        """Garbage-collect intervals, as TreadMarks does periodically.

        An interval (p, i) is reclaimable when every processor's
        knowledge covers it (``i <= known_vc[p]``, so its write notices
        can never be delivered again) and no pending list names it
        (``refs == 0``, so its diffs can never be requested again).
        Returns the number of intervals reclaimed.

        A cached span goes with the first of its constituent intervals
        to go, so a hit always has live intervals behind it.  The keys a
        reclaimed interval recorded are exactly the spans that name it:
        a span is built from the writer's intervals in ``[first, last]``
        that wrote the unit (a fetch clears every notice of a unit), so
        "``(p, i)`` is reclaimed, in range and wrote the unit" holds
        for precisely the recorded keys.
        """
        dropped = 0
        cache = self.diff_scan_cache
        for p in range(self.nprocs):
            live = self._by_proc[p]
            dead = [
                i for i, iv in live.items() if i <= known_vc[p] and not iv.refs
            ]
            for i in dead:
                for key in live.pop(i).spans or ():
                    cache.pop(key, None)
            dropped += len(dead)
        self.collected += dropped
        return dropped
