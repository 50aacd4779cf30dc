"""Interval records and write notices -- the LRC consistency metadata.

An *interval* is the span of one processor's execution between two of its
synchronization operations.  Closing an interval (at a release or barrier
arrival) produces one :class:`Diff` per consistency unit the processor
wrote, plus *write notices* -- (processor, interval, unit) triples that
invalidate remote copies when they propagate at the next acquire.

``commit_seq`` is a global monotone counter assigned at close time.
Because the scheduling engine services synchronization operations in
simulated-time order and every happens-before edge crosses such an
operation, commit order is a linear extension of the happens-before
partial order; sorting pending diffs by ``commit_seq`` therefore applies
them in a correct (and deterministic) order even when intervals are
concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.dsm.diff import Diff
from repro.dsm.vc import VectorClock

_EMPTY_UNITS = np.empty(0, dtype=np.int64)


@dataclass
class Interval:
    """One closed interval of one processor."""

    proc: int
    index: int
    """1-based interval index within ``proc`` (== vc[proc] at close)."""
    vc: VectorClock
    """The processor's vector clock when the interval closed."""
    commit_seq: int
    """Global close-order stamp; a linear extension of happens-before."""
    diffs: Dict[int, Diff] = field(default_factory=dict)
    """unit id -> diff for every unit written during the interval."""
    units_arr: np.ndarray = field(default_factory=lambda: _EMPTY_UNITS)
    """The written units as an int64 array in ``diffs`` insertion order,
    precomputed at close time so notice application can index per-unit
    metadata arrays in one vectorized step per interval."""

    @property
    def units(self) -> Iterable[int]:
        """The consistency units this interval wrote."""
        return self.diffs.keys()

    def diff_for(self, unit: int) -> Diff:
        """The diff for ``unit``; KeyError if the interval did not write it."""
        return self.diffs[unit]


@dataclass(frozen=True, slots=True)
class WriteNotice:
    """An invalidation token: interval (proc, index) wrote ``unit``."""

    proc: int
    index: int
    unit: int
    commit_seq: int


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
        Written by every protocol that creates diffs; entries leave only
        through :meth:`collect`, with the intervals they cover."""

    def close_interval(
        self, proc: int, vc: VectorClock, diffs: Dict[int, Diff]
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
        self._commit_counter += 1
        interval = Interval(
            proc=proc,
            index=expected,
            vc=vc.copy(),
            commit_seq=self._commit_counter,
            diffs=dict(diffs),
            units_arr=np.asarray(list(diffs), dtype=np.int64)
            if diffs
            else _EMPTY_UNITS,
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

    def collect(
        self, known_vc: VectorClock, referenced: Container[Tuple[int, int]]
    ) -> int:
        """Garbage-collect intervals, as TreadMarks does periodically.

        An interval (p, i) is reclaimable when every processor's
        knowledge covers it (``i <= known_vc[p]``, so its write notices
        can never be delivered again) and no processor still holds a
        pending notice for it (``(p, i) not in referenced``, so its
        diffs can never be requested again).  Returns the number of
        intervals reclaimed.
        """
        dropped = 0
        reclaimed: List[Dict[int, Interval]] = []
        for p in range(self.nprocs):
            live = self._by_proc[p]
            dead = {
                i: live[i]
                for i in live
                if i <= known_vc[p] and (p, i) not in referenced
            }
            for i in dead:
                del live[i]
            reclaimed.append(dead)
            dropped += len(dead)
        self.collected += dropped
        if dropped:
            # A cached span goes as soon as one of its constituent
            # intervals does: a hit always has live intervals behind it,
            # and a request for a span GC should have kept alive misses
            # and raises in :meth:`get` instead of being served.
            cache = self.diff_scan_cache
            stale = [
                (p, unit, first, last)
                for p, unit, first, last in cache
                if any(
                    i in reclaimed[p] and unit in reclaimed[p][i].diffs
                    for i in range(first, last + 1)
                )
            ]
            for key in stale:
                del cache[key]
        return dropped

    def notices_between(
        self, old_vc: VectorClock, new_vc: VectorClock
    ) -> Iterator[Tuple[Interval, int]]:
        """(interval, unit) pairs for every write covered by ``new_vc``
        but not by ``old_vc`` -- the write notices that must be applied
        when a processor's knowledge advances from old to new."""
        for proc in range(self.nprocs):
            for interval in self.intervals_between(proc, old_vc[proc], new_vc[proc]):
                for unit in interval.units:
                    yield interval, unit
